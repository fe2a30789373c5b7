package cracking

import "holistic/internal/avl"

// This file implements the Ripple algorithm of Idreos et al. ("Updating a
// Cracked Database", SIGMOD 2007), which the paper adopts for updates
// (Section 4.2, Updates; Section 5.7): a pending insertion is merged into
// the cracker column without destroying any partitioning information, by
// moving exactly one value per piece boundary that lies above the target
// piece. Both user queries and holistic workers trigger merges; holistic
// workers thereby "not only refine the adaptive indices in the background
// but also bring them more up to date".
//
// A merge is the one operation that moves existing piece boundaries, so
// it takes the column-level lock exclusively; all cracking, selection and
// refinement hold it shared. Merges are short (one value moved per
// boundary) and, in the paper's workloads, arrive in small batches, so
// the exclusive section is brief.

// moveLocked copies the tuple at position from over the one at to, in
// every array the layout keeps. Caller must hold the column exclusively.
func (c *Column) moveLocked(to, from int) {
	c.vals[to] = c.vals[from]
	if !c.packed {
		c.rows[to] = c.rows[from]
	}
}

// widenLocked converts a packed column to the wide layout in place:
// every word gives way to its value and the rowids move to an array of
// their own. Positions, pieces and the tree (keyed by value all along)
// are untouched. One O(N) pass, taken once, by the first insert the
// window cannot hold. Caller must hold the column exclusively.
func (c *Column) widenLocked() {
	rows := make([]uint32, len(c.vals), cap(c.vals))
	for i, w := range c.vals {
		rows[i] = uint32(w)
		c.vals[i] = c.value(w)
	}
	c.rows, c.layout = rows, layout{}
}

// growthDivisor and growthFloor are the slack a full array gets when a
// merged insert needs one more slot: len/growthDivisor slots, at least
// growthFloor. Every array of a column is as long as the others and grows
// by the same rule, so they grow together and keep equal capacities.
//
// Go's append would add a quarter of the column (16 → 20 MB for a 2 Mi-row
// cracker), held for good by an index that took a few inserts; len/64 holds
// 1.6 %. The copy it costs is amortized over the slack it opens: at most
// growthDivisor element copies per inserted element, about 0.5 KB, which is
// noise beside the ripple itself (tens of µs a merge on a 2 Mi-row column).
// A chunked tail would save even that copy but break every crack kernel's
// one contiguous array.
const (
	growthDivisor = 64
	growthFloor   = 64
)

// growthCap is the capacity grown gives an array of n elements that is full.
func growthCap(n int) int { return n + max(n/growthDivisor, growthFloor) }

// grown returns s one element longer, in place while capacity lasts and
// otherwise in a new array of growthCap(len(s)). Neither append nor
// slices.Grow would do: both round the capacity back up to Go's own growth.
// make and copy, adjacent, compile to one allocation that zeroes only what
// the copy leaves. The new slot holds garbage; the caller overwrites it.
func grown[T int64 | uint32](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	g := make([]T, growthCap(len(s)))
	copy(g, s)
	return g[:len(s)+1]
}

// boundariesAboveLocked returns the pieces whose boundary key is greater
// than key, in ascending key (= position) order, starting the walk at
// key's successor. The slice is the column's ripple scratch: valid until
// the next merge. Caller must hold the column exclusively.
func (c *Column) boundariesAboveLocked(key int64) []*piece {
	c.above = c.above[:0]
	c.tree.AscendAfter(key, func(_ int64, pv avl.Value) bool {
		c.above = append(c.above, pv.(*piece))
		return true
	})
	return c.above
}

// MergeInsert inserts value v with rowid row into the cracked column,
// preserving all piece information.
func (c *Column) MergeInsert(v int64, row uint32) {
	c.global.Lock()
	defer c.global.Unlock()
	// The exclusive column lock shuts out all query/refinement paths, but
	// statistics accessors (Len, Pieces, AvgPieceSize, ...) read the
	// slice headers and piece boundaries under mu alone — so mutate them
	// under mu as well. Lock order global -> mu matches every other path.
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.packed && !c.fits(v) {
		c.widenLocked()
	}

	// Locate the piece that must receive v.
	targetKey, _, _, _ := c.pieceSpanLocked(v)

	// Open a hole past the current end.
	c.vals = grown(c.vals)
	if !c.packed {
		c.rows = grown(c.rows)
	}
	hole := len(c.vals) - 1

	// Ripple the hole down: for each boundary above the target (highest
	// first), move the first value of its piece into the hole and shift
	// the boundary right by one. Piece contents are preserved because
	// order inside a piece carries no information.
	above := c.boundariesAboveLocked(targetKey)
	for i := len(above) - 1; i >= 0; i-- {
		p := above[i]
		c.moveLocked(hole, p.start)
		hole = p.start
		p.start++
	}

	if c.packed {
		c.vals[hole] = c.word(v, row)
	} else {
		c.vals[hole], c.rows[hole] = v, row
	}
	if v < c.domainLo {
		c.domainLo = v
	}
	if v > c.domainHi {
		c.domainHi = v
	}
}

// MergeDelete removes one occurrence of value v from the cracked column,
// preserving all piece information, and reports whether it was present,
// with the rowid of the removed tuple. Which occurrence of a duplicated value disappears is unspecified; use
// MergeDeleteRow to target a specific tuple.
func (c *Column) MergeDelete(v int64) (row uint32, found bool) {
	return c.mergeDelete(v, 0, false)
}

// MergeDeleteRow removes the tuple (v, targetRow) from the cracked
// column, keeping value-duplicate deletions consistent with row-level
// bookkeeping above. When the exact tuple is absent it falls back to
// removing an unspecified occurrence of v, preserving multiset semantics.
func (c *Column) MergeDeleteRow(v int64, targetRow uint32) (row uint32, found bool) {
	return c.mergeDelete(v, targetRow, true)
}

func (c *Column) mergeDelete(v int64, targetRow uint32, byRow bool) (row uint32, found bool) {
	c.global.Lock()
	defer c.global.Unlock()
	c.mu.Lock() // see MergeInsert for why
	defer c.mu.Unlock()

	targetKey, p, end, _ := c.pieceSpanLocked(v)
	// Linear search inside the target piece: pieces are unordered inside.
	tuples, victim := c.segment(p.start, end), -1
	if byRow {
		victim = tuples.find(v, targetRow, true)
	}
	if victim < 0 {
		victim = tuples.find(v, 0, false)
	}
	if victim < 0 {
		return 0, false
	}
	row = tuples.Row(victim)
	victim += p.start

	// Fill the victim slot with the last value of its piece; the hole is
	// now the piece's last slot.
	c.moveLocked(victim, end-1)
	hole := end - 1

	// Ripple the hole up: each piece above the target shifts left by one
	// by moving its last value into the hole at its (new) first slot and
	// decrementing its boundary. A piece ends where the next one starts,
	// and that start has not moved yet when the piece is visited.
	above := c.boundariesAboveLocked(targetKey)
	for i, q := range above {
		last := len(c.vals) - 1
		if i+1 < len(above) {
			last = above[i+1].start - 1
		}
		c.moveLocked(hole, last)
		hole = last
		q.start--
	}

	c.vals = c.vals[:len(c.vals)-1]
	if !c.packed {
		c.rows = c.rows[:len(c.rows)-1]
	}
	return row, true
}

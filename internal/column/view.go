package column

import (
	"fmt"
	"math/bits"
	"slices"
)

// View is an update-aware positional view of one attribute: the base
// array plus the logical overlay accumulated by pending insertions
// (Tail), deletions (Deleted) and value updates (Updated). Positional
// probes through a View observe the attribute's current logical state
// regardless of how much of the pending-update queue has been merged
// into the attribute's adaptive index — the property the conjunctive
// query path relies on when it probes non-driving attributes.
//
// A View is a snapshot: the maps are owned by the View, and Base/Tail
// alias storage whose first len() elements are immutable.
//
// Every method below has the same two halves: a view that is only its
// base array runs the tight kernel over it, any other walks the
// selection through At (walkRows, walkBits). The methods that fold
// values require every selected position to have one: filter by
// presence first.
type View struct {
	// Base is the attribute's base array; row id r < len(Base) stores its
	// value at Base[r] unless overridden below.
	Base []int64
	// Tail holds appended rows: row id len(Base)+i stores Tail[i].
	Tail []int64
	// Deleted marks row ids whose tuple was deleted (no value).
	Deleted map[Pos]struct{}
	// Updated overrides the value of individual row ids.
	Updated map[Pos]int64
	// Writes is the number of writes to the attribute the snapshot
	// reflects, for an owner that must tell whether it still is current.
	Writes uint64
}

// Plain reports whether the view is just the base array (no overlay):
// every value it holds can then be read straight off Base.
//
//holistic:noalloc
func (w View) Plain() bool {
	return len(w.Tail) == 0 && len(w.Deleted) == 0 && len(w.Updated) == 0
}

// At returns the value at row id p; ok is false when the row has no
// value in this attribute (deleted, or never inserted here).
//
//holistic:noalloc
func (w View) At(p Pos) (int64, bool) {
	if _, dead := w.Deleted[p]; dead {
		return 0, false
	}
	if v, ok := w.Updated[p]; ok {
		return v, true
	}
	if int(p) < len(w.Base) {
		return w.Base[p], true
	}
	if i := int(p) - len(w.Base); i < len(w.Tail) {
		return w.Tail[i], true
	}
	return 0, false
}

// value is At for the walkers. A position without a value is skipped by
// a selecting walk — dropping it is the walk's job — and is a caller's
// bug in a folding one.
//
//holistic:noalloc
func (w View) value(p Pos, selecting bool) (int64, bool) {
	v, ok := w.At(p)
	if !ok && !selecting {
		panic(fmt.Sprintf("column: row %d has no value in this attribute; filter by presence first", p))
	}
	return v, ok
}

// walkRows hands visit every position of sel that has a value, with the
// value. visit may append p to sel[:0].
//
//holistic:noalloc
func (w View) walkRows(sel PosList, selecting bool, visit func(p Pos, v int64)) {
	for _, p := range sel {
		if v, ok := w.value(p, selecting); ok {
			visit(p, v)
		}
	}
}

// walkBits hands visit every set position of b that has a value, with
// the value, and clears the set positions that have none. visit may
// clear p.
//
//holistic:noalloc
func (w View) walkBits(b *Bitmap, selecting bool, visit func(p Pos, v int64)) {
	for wi, word := range b.words {
		for ; word != 0; word &= word - 1 {
			p := Pos(wi<<6 + bits.TrailingZeros64(word))
			if v, ok := w.value(p, selecting); ok {
				visit(p, v)
			} else {
				b.unset(p)
			}
		}
	}
}

// Selection is the intermediate a conjunctive query refines: the
// candidate positions, held as a word-packed Bitmap (Dense) or as a
// position list in the order the driving select found them. Which of
// the two is decided once per query, where the selection is driven; the
// operators below take either.
type Selection struct {
	Bits  *Bitmap // the candidates when Dense
	Rows  PosList // the candidates otherwise; its storage is the selection's
	Dense bool
}

// Count returns the number of candidates: a popcount pass when Dense.
//
//holistic:noalloc
func (s *Selection) Count() int {
	if s.Dense {
		return s.Bits.Count()
	}
	return len(s.Rows)
}

// Any reports whether a candidate is left, stopping at the first.
//
//holistic:noalloc
func (s *Selection) Any() bool {
	if s.Dense {
		return s.Bits.Any()
	}
	return len(s.Rows) > 0
}

// Sort puts a position list in ascending order, the order a bitmap
// always has: what Fetch needs before it when tuples must come out by
// row id.
//
//holistic:noalloc
func (s *Selection) Sort() {
	if !s.Dense {
		slices.Sort(s.Rows)
	}
}

// Positions appends the candidates to dst in ascending order.
//
//holistic:noalloc
func (s *Selection) Positions(dst PosList) PosList {
	if s.Dense {
		return s.Bits.AppendPositions(dst)
	}
	s.Sort()
	dst = append(dst, s.Rows...)
	return dst
}

// Filter keeps the candidates whose current value lies in [lo, hi), in
// place and in order; rows without a value are dropped. It is the refine
// operator of the conjunctive hot path.
//
//holistic:noalloc
func (w View) Filter(s *Selection, lo, hi int64, workers int) {
	if w.Plain() {
		if s.Dense {
			parallelFilterBitmap(w.Base, s.Bits, lo, hi, workers)
		} else {
			s.Rows = parallelFilterRows(s.Rows[:0], w.Base, s.Rows, lo, hi, workers)
		}
		return
	}
	ulo, span := rangeBits(lo, hi)
	if s.Dense {
		w.walkBits(s.Bits, true, func(p Pos, v int64) {
			if !inRange(v, ulo, span) {
				s.Bits.unset(p)
			}
		})
		return
	}
	out := s.Rows[:0]
	w.walkRows(s.Rows, true, func(p Pos, v int64) {
		if inRange(v, ulo, span) {
			out = append(out, p)
		}
	})
	s.Rows = out
}

// Intersect keeps the candidates whose bit is set in b, in place and in
// order: a word AND for a bitmap, a bit test per position for a list —
// branch-free, since about as many candidates go as stay. It is the
// refine operator of a residual conjunct selected through its own index
// into b; b may cover fewer or more positions than s.
//
//holistic:noalloc
func (s *Selection) Intersect(b *Bitmap) {
	if !s.Dense {
		rows, k := s.Rows, 0
		for _, p := range rows {
			if w := int(p >> 6); w < len(b.words) {
				rows[k] = p
				k += int(b.words[w] >> (p & 63) & 1)
			}
		}
		s.Rows = rows[:k]
		return
	}
	words, n := s.Bits.words, min(len(s.Bits.words), len(b.words))
	for i, w := range b.words[:n] {
		words[i] &= w
	}
	clear(words[n:])
}

// Present keeps the candidates that have a value in this attribute — the
// presence filter for aggregate and projection attributes that were not
// among the predicates.
//
//holistic:noalloc
func (w View) Present(s *Selection) {
	switch plain := w.Plain(); {
	case s.Dense && plain:
		s.Bits.clearFrom(len(w.Base))
	case s.Dense:
		w.walkBits(s.Bits, true, func(Pos, int64) {})
	case plain && allBelow(s.Rows, Pos(len(w.Base))):
		// the common case: the filter of a plain view is the identity
	default:
		out := s.Rows[:0]
		w.walkRows(s.Rows, true, func(p Pos, _ int64) { out = append(out, p) })
		s.Rows = out
	}
}

// allBelow reports whether every position of sel is below n.
//
//holistic:noalloc
func allBelow(sel PosList, n Pos) bool {
	for _, p := range sel {
		if p >= n {
			return false
		}
	}
	return true
}

// walk is the folding walk of an overlaid view: visit gets the current
// value of every candidate, each of which must have one.
//
//holistic:noalloc
func (w View) walk(s *Selection, visit func(p Pos, v int64)) {
	if s.Dense {
		w.walkBits(s.Bits, false, visit)
	} else {
		w.walkRows(s.Rows, false, visit)
	}
}

// Sum folds the sum of the candidates' current values without
// materializing them; a position list's fold is split across workers.
//
//holistic:noalloc
func (w View) Sum(s *Selection, workers int) (sum int64) {
	if !w.Plain() {
		w.walk(s, func(_ Pos, v int64) { sum += v })
		return sum
	}
	if s.Dense {
		return SumBitmap(w.Base, s.Bits)
	}
	return parallelSumRows(w.Base, s.Rows, workers)
}

// MinMax folds the extrema of the candidates' current values and counts
// them; mn and mx mean something only when n > 0.
//
//holistic:noalloc
func (w View) MinMax(s *Selection) (mn, mx int64, n int) {
	if !w.Plain() {
		mn, mx = noMin, noMax
		w.walk(s, func(_ Pos, v int64) { mn, mx = widen(mn, mx, v) })
		return mn, mx, s.Count()
	}
	if s.Dense {
		return minMaxBits(w.Base, s.Bits.words)
	}
	return minMaxRows(w.Base, s.Rows)
}

// Fetch appends the candidates' current values to dst in the selection's
// order — ascending for a bitmap; Sort a position list first where that
// matters. A position list's gather is split across workers.
//
//holistic:noalloc
func (w View) Fetch(s *Selection, dst []int64, workers int) []int64 {
	if !w.Plain() {
		w.walk(s, func(_ Pos, v int64) { dst = append(dst, v) })
		return dst
	}
	if s.Dense {
		return gatherBits(dst, w.Base, s.Bits.words)
	}
	return gatherRows(dst, w.Base, s.Rows, workers)
}

// GatherRows appends the current values at the positions of sel to dst:
// the allocation-free gather the grouped-aggregation and join kernels
// run per chunk of a selection.
//
//holistic:noalloc
func (w View) GatherRows(dst []int64, sel PosList) []int64 {
	s := Selection{Rows: sel}
	return w.Fetch(&s, dst, 1)
}

// Extent returns the size of the view's position universe: base rows
// plus appended rows. Row ids at or beyond it never have a value.
func (w View) Extent() int { return len(w.Base) + len(w.Tail) }

// ExtendBounds widens the base-column bounds [lo, hi] by the values the
// view's overlay can surface (appended tail rows and updated values), so
// every value observable through the view lies inside the result. An
// inverted input pair (empty base) is replaced rather than widened.
// Deletions never add values and are ignored.
func (w View) ExtendBounds(lo, hi int64) (int64, int64) {
	if hi < lo && len(w.Tail)+len(w.Updated) > 0 {
		lo, hi = noMin, noMax
	}
	for _, v := range w.Tail {
		lo, hi = widen(lo, hi, v)
	}
	for _, v := range w.Updated {
		lo, hi = widen(lo, hi, v)
	}
	return lo, hi
}

package cracking

import (
	"math"
	"math/rand"
	"sync"
)

// Range is the result of a range select on a cracker column: after the
// necessary cracks, all qualifying values (lo <= v < hi) occupy the
// contiguous positions [Start, End). ExactLo/ExactHi report whether the
// respective bound already existed in the cracker index (an "exact hit"
// — the query needed no physical reorganization for that bound), which
// feeds the fIh statistic of strategy W3.
type Range struct {
	Start, End       int
	ExactLo, ExactHi bool
}

// Count returns the number of qualifying tuples — available without any
// data access, one of the core payoffs of cracking.
func (r Range) Count() int { return r.End - r.Start }

// ExactHit reports whether the query was answered entirely from the
// existing cracker index, with no physical reorganization.
func (r Range) ExactHit() bool { return r.ExactLo && r.ExactHi }

// crackResult reports the outcome of establishing one boundary.
type crackResult struct {
	pos   int  // position of the first value >= the pivot
	exact bool // the boundary already existed
}

// minStochasticPiece is the smallest piece on which a stochastic
// auxiliary crack is worthwhile; below this the piece is cheap to scan
// anyway and the extra boundary is pure overhead.
const minStochasticPiece = 1024

// CrackAt establishes a boundary at value v as a user query would (block
// on the piece latch) and returns its position. After it returns, every
// value < v is stored before pos and every value >= v at or after pos.
func (c *Column) CrackAt(v int64) (pos int, exact bool) {
	c.global.RLock()
	defer c.global.RUnlock()
	res, _ := c.crackAt(v, true, c.cfg.Stochastic)
	return res.pos, res.exact
}

// crackAt implements CrackAt. block selects user-query semantics (wait on
// the piece latch); with block=false the latch is try-acquired and
// ok=false returned on contention (holistic-worker semantics, Figure 3).
// stochastic adds one auxiliary random crack inside the target piece.
// The caller must hold c.global shared.
func (c *Column) crackAt(v int64, block, stochastic bool) (res crackResult, ok bool) {
	for {
		c.mu.RLock()
		key, p, _, _ := c.pieceSpanLocked(v)
		c.mu.RUnlock()
		if key == v {
			return crackResult{pos: p.start, exact: true}, true
		}
		if block {
			p.latch.Lock()
		} else if !p.latch.TryLock() {
			return crackResult{}, false
		}
		// Revalidate: the piece may have been cracked between the lookup
		// and latch acquisition. Any split that matters to v moves v into
		// a different piece (different tree node); a split to the right
		// of v keeps p but shrinks its end, which the re-read reflects.
		c.mu.RLock()
		key2, p2, end, nextKey := c.pieceSpanLocked(v)
		c.mu.RUnlock()
		if p2 != p || key2 != key {
			p.latch.Unlock()
			if key2 == v {
				// Someone cracked exactly at v while we waited.
				return crackResult{pos: p2.start, exact: true}, true
			}
			continue
		}

		lo, hi := p.start, end
		var preLocked *piece
		if stochastic && hi-lo >= minStochasticPiece {
			if r, okPivot := c.stochasticPivot(key, nextKey, v); okPivot {
				mid := c.partition(lo, hi, r)
				np := &piece{start: mid}
				if v > r {
					// The half we still need to crack belongs to the new
					// piece; pre-lock it before publishing so no other
					// thread can slip in.
					np.latch.Lock()
					preLocked = np
				}
				c.mu.Lock()
				c.tree.Insert(r, np)
				c.mu.Unlock()
				if v < r {
					hi = mid
				} else {
					lo = mid
				}
			}
		}
		mid := c.partition(lo, hi, v)
		c.mu.Lock()
		c.tree.Insert(v, &piece{start: mid})
		c.mu.Unlock()
		p.latch.Unlock()
		if preLocked != nil {
			preLocked.latch.Unlock()
		}
		return crackResult{pos: mid}, true
	}
}

// pieceSpanLocked returns the piece containing v, its lower-bound key,
// its end position and the key of the next boundary (math.MaxInt64 when
// none). Caller must hold mu.
func (c *Column) pieceSpanLocked(v int64) (key int64, p *piece, end int, nextKey int64) {
	key, pv, _ := c.tree.Floor(v)
	p = pv.(*piece)
	nextKey = math.MaxInt64
	if nk, nv, ok := c.tree.Successor(key); ok {
		end = nv.(*piece).start
		nextKey = nk
	} else {
		end = len(c.vals)
	}
	return key, p, end, nextKey
}

// UniformIn draws a value uniformly from [lo, hi], lo <= hi. The span is
// taken unsigned, so a domain wider than MaxInt64 — whose hi-lo+1 wraps
// negative and makes Int63n panic — draws like any other; narrower spans
// consume the generator exactly as lo + Int63n(hi-lo+1) does.
func UniformIn(rng *rand.Rand, lo, hi int64) int64 {
	span := uint64(hi) - uint64(lo) // one less than the number of values
	if span < math.MaxInt64 {
		return lo + rng.Int63n(int64(span)+1)
	}
	for {
		if x := rng.Uint64(); x <= span { // accepts more than half the draws
			return int64(uint64(lo) + x)
		}
	}
}

// stochasticPivot draws a random pivot strictly inside the piece's value
// span (loKey, hiKey), different from v. ok is false when the span is too
// narrow to be worth a crack.
func (c *Column) stochasticPivot(loKey, hiKey, v int64) (int64, bool) {
	// The candidates are lo+1 .. last; everything is inclusive and the
	// width unsigned, so neither domainHi = MaxInt64 nor a span beyond
	// MaxInt64 wraps.
	lo, last := loKey, hiKey-1
	if lo == sentinelKey {
		lo = c.domainLo
	}
	if hiKey == math.MaxInt64 {
		last = c.domainHi
	}
	if last <= lo || uint64(last)-uint64(lo) < 3 {
		return 0, false
	}
	c.rngMu.Lock()
	r := UniformIn(c.rng, lo+1, last)
	c.rngMu.Unlock()
	if r == v {
		if r == last {
			r = lo + 1
		} else {
			r++
		}
		if r == v {
			return 0, false
		}
	}
	return r, true
}

// SelectRange cracks the column on [lo, hi) and returns the contiguous
// position range of qualifying values. This is the cracking select
// operator: the first query on a column pays O(N), later queries touch
// only the (ever smaller) pieces their bounds fall into.
//
// The returned positions stay valid until the next update merge
// (MergeInsert/MergeDelete). Queries that materialize results on columns
// receiving updates should use SelectSum/SelectSegments/SelectRows, which
// pin the column across both steps.
func (c *Column) SelectRange(lo, hi int64) Range {
	c.global.RLock()
	defer c.global.RUnlock()
	return c.selectRangeLocked(lo, hi)
}

// selectRangeLocked implements SelectRange; caller holds c.global shared.
func (c *Column) selectRangeLocked(lo, hi int64) Range {
	if lo >= hi {
		return Range{}
	}

	// Crack-in-three fast path: both bounds fall into the same piece and
	// neither is an existing boundary — latch and look the piece up once,
	// then crack at lo over the piece and at hi over its right part.
	// Skipped under stochastic cracking, which weaves its auxiliary crack
	// into the first bound's crack instead.
	if !c.cfg.Stochastic {
		for {
			c.mu.RLock()
			kLo, pLo, _, _ := c.pieceSpanLocked(lo)
			kHi, pHi, _, _ := c.pieceSpanLocked(hi)
			c.mu.RUnlock()
			if kLo == lo && kHi == hi {
				return Range{Start: pLo.start, End: pHi.start, ExactLo: true, ExactHi: true}
			}
			if pLo != pHi || kLo == lo || kHi == hi {
				break // different pieces or one bound exact: general path
			}
			pLo.latch.Lock()
			c.mu.RLock()
			kLo2, pLo2, endLo, _ := c.pieceSpanLocked(lo)
			_, pHi2, _, _ := c.pieceSpanLocked(hi)
			c.mu.RUnlock()
			if pLo2 != pLo || kLo2 != kLo || pHi2 != pLo {
				pLo.latch.Unlock()
				continue // piece changed while we waited; reassess
			}
			m1 := c.partition(pLo.start, endLo, lo)
			m2 := c.partition(m1, endLo, hi)
			c.mu.Lock()
			c.tree.Insert(lo, &piece{start: m1})
			c.tree.Insert(hi, &piece{start: m2})
			c.mu.Unlock()
			pLo.latch.Unlock()
			return Range{Start: m1, End: m2}
		}
	}

	rLo, _ := c.crackAt(lo, true, c.cfg.Stochastic)
	rHi, _ := c.crackAt(hi, true, false)
	return Range{Start: rLo.pos, End: rHi.pos, ExactLo: rLo.exact, ExactHi: rHi.exact}
}

// PieceSpan returns the value range [lo, hi) covered by the piece that
// value v currently falls into (math.MinInt64 / math.MaxInt64 at the open
// ends). Holistic workers use it to find the pending updates their pivot's
// piece is responsible for (Section 4.2, Updates).
func (c *Column) PieceSpan(v int64) (lo, hi int64) {
	c.global.RLock()
	defer c.global.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	key, _, _, nextKey := c.pieceSpanLocked(v)
	return key, nextKey
}

// Probe reads what SelectRange(lo, hi) would cost off the cracker index,
// cracking nothing: work is the number of values it would partition
// first, the piece each bound that is not a boundary falls inside — a
// piece both bounds fall inside twice, as the select partitions it at lo
// and then its upper part at hi. With no work the range is bracketed and
// n is the exact number of qualifying tuples; otherwise n is 0.
// O(log pieces).
//
//holistic:noalloc
func (c *Column) Probe(lo, hi int64) (n, work int) {
	if lo >= hi {
		return 0, 0
	}
	c.global.RLock()
	defer c.global.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	kLo, pLo, endLo, _ := c.pieceSpanLocked(lo)
	kHi, pHi, endHi, _ := c.pieceSpanLocked(hi)
	if kLo != lo {
		work = endLo - pLo.start
	}
	if kHi != hi {
		work += endHi - pHi.start
	}
	if work > 0 {
		return 0, work
	}
	// A bound inside an empty piece sits at its start as surely as a
	// boundary does.
	return pHi.start - pLo.start, 0
}

// LowestRow returns the smallest rowid among the tuples holding value v,
// with ok=false when none does: the index side of a write that names its
// victim by value. It cracks nothing — v's tuples all sit in the one piece
// v falls into, which is read under its read latch — so what it costs is a
// scan of that piece, and the column has the same pieces afterwards. The
// column must carry rowids.
//
//holistic:noalloc
func (c *Column) LowestRow(v int64) (row uint32, ok bool) {
	c.global.RLock()
	defer c.global.RUnlock()
	c.mu.RLock()
	_, p, end, _ := c.pieceSpanLocked(v)
	c.mu.RUnlock()
	// Should a crack split the piece before its latch is taken, the walk
	// covers the halves one by one: the same positions, the same tuples.
	c.forEachSpanLocked(p.start, end, func(pos, seg int) {
		if r, found := c.segment(pos, seg).lowestRow(v); found && (!ok || r < row) {
			row, ok = r, true
		}
	})
	return row, ok
}

// SelectSum cracks on [lo, hi) and sums the qualifying values, all under
// one column pin so concurrent update merges cannot shift positions
// between the two steps.
func (c *Column) SelectSum(lo, hi int64) (Range, int64) {
	c.global.RLock()
	defer c.global.RUnlock()
	r := c.selectRangeLocked(lo, hi)
	var s int64
	c.forEachSpanLocked(r.Start, r.End, func(pos, seg int) {
		s += c.segment(pos, seg).Sum()
	})
	return r, s
}

// SelectSegments cracks on [lo, hi) and streams the qualifying tuples to
// fn, one stable segment at a time under the owning piece's read latch,
// all under one column pin like SelectSum — the general form the other
// Select* folds specialise. fn also receives the select's range, so a
// consumer can size its output before the first segment; it must not
// retain the segment.
func (c *Column) SelectSegments(lo, hi int64, fn func(r Range, s Segment)) Range {
	c.global.RLock()
	defer c.global.RUnlock()
	r := c.selectRangeLocked(lo, hi)
	c.forEachSpanLocked(r.Start, r.End, func(pos, seg int) {
		fn(r, c.segment(pos, seg))
	})
	return r
}

// SelectRows cracks on [lo, hi) and materializes the qualifying rowids.
// The rowids feed project operators for late tuple reconstruction.
func (c *Column) SelectRows(lo, hi int64) (Range, []uint32) {
	c.global.RLock()
	defer c.global.RUnlock()
	r := c.selectRangeLocked(lo, hi)
	out := make([]uint32, 0, r.Count())
	c.forEachSpanLocked(r.Start, r.End, func(pos, seg int) {
		out = c.segment(pos, seg).AppendRows(out)
	})
	return r, out
}

// rowChunk is how many rowids a packed column decodes at a time for a
// consumer that takes them as a slice.
const rowChunk = 1024

// rowChunks recycles the decode buffers of SelectRowsFunc: its consumer
// is a function value, so a buffer on the stack would escape.
var rowChunks = sync.Pool{New: func() any { return new([rowChunk]uint32) }}

// SelectRowsFunc cracks on [lo, hi) and streams the qualifying rowids
// to fn under the owning pieces' read latches, without materializing a
// position list — the zero-allocation feed of the bitmap select path: a
// segment at a time from a rowid array, a chunk at a time decoded from
// packed words. fn must not retain the slice.
func (c *Column) SelectRowsFunc(lo, hi int64, fn func(rows []uint32)) Range {
	c.global.RLock()
	defer c.global.RUnlock()
	r := c.selectRangeLocked(lo, hi)
	buf := rowChunks.Get().(*[rowChunk]uint32)
	defer rowChunks.Put(buf)
	c.forEachSpanLocked(r.Start, r.End, func(pos, seg int) {
		s := c.segment(pos, seg)
		for from := 0; from < s.Len(); {
			rows := s.rowsFrom(from, buf[:])
			fn(rows)
			from += len(rows)
		}
	})
	return r
}

// ForEachSegment invokes fn on consecutive stable sub-segments covering
// positions [start, end), each passed under the owning piece's read
// latch. fn must not retain the segment. Positions must come from a
// select on this column with no intervening update merge.
func (c *Column) ForEachSegment(start, end int, fn func(s Segment)) {
	c.global.RLock()
	defer c.global.RUnlock()
	c.forEachSpanLocked(start, end, func(pos, seg int) {
		fn(c.segment(pos, seg))
	})
}

// forEachSpanLocked walks the stable position spans covering [start,
// end), invoking fn under each owning piece's read latch. Caller holds
// c.global shared.
func (c *Column) forEachSpanLocked(start, end int, fn func(pos, seg int)) {
	pos := start
	for pos < end {
		c.mu.RLock()
		p, _ := c.pieceByPosLocked(pos)
		c.mu.RUnlock()
		p.latch.RLock()
		// Revalidate under the latch: p may have been split while we
		// acquired it. If pos now belongs to a different piece, retry;
		// the re-read end is stable while we hold the read latch
		// (splitters need the write latch).
		c.mu.RLock()
		p2, pend := c.pieceByPosLocked(pos)
		c.mu.RUnlock()
		if p2 != p {
			p.latch.RUnlock()
			continue
		}
		seg := pend
		if end < seg {
			seg = end
		}
		if seg > pos {
			fn(pos, seg)
		}
		p.latch.RUnlock()
		if seg <= pos {
			// Degenerate empty piece; step past it to avoid spinning.
			pos++
			continue
		}
		pos = seg
	}
}

// ForEachPiece walks the whole column piece by piece in ascending key
// order, invoking fn under each piece's read latch with the piece's
// tuples. Pieces are value-disjoint and ordered — every value of an
// earlier piece is strictly below every value of a later one — so the
// stream is a key-clustered partition of the column: the access path of
// sort-based (index-clustered) grouping, which aggregates each piece with
// a small local accumulator and emits groups in key order with no global
// hash table. Values inside one piece are unordered. fn must not retain
// the segment. Concurrent refinement may split a piece mid-walk, in which
// case its halves are streamed separately — still disjoint, still
// ascending.
func (c *Column) ForEachPiece(fn func(s Segment)) {
	c.global.RLock()
	defer c.global.RUnlock()
	c.forEachSpanLocked(0, len(c.vals), func(pos, seg int) {
		fn(c.segment(pos, seg))
	})
}

// RefineOutcome reports what a holistic refinement attempt achieved.
type RefineOutcome int

const (
	// RefineDone: the piece was cracked; one new boundary exists.
	RefineDone RefineOutcome = iota
	// RefineExact: the pivot already was a boundary; nothing to do.
	RefineExact
	// RefineBusy: the piece latch was held; the worker should re-roll a
	// different random pivot rather than wait (Figure 3).
	RefineBusy
	// RefineSmall: the piece is already at or below the optimal piece
	// size; cracking it further would add administration cost for no
	// scan benefit (Section 4.1, "Optimal Index").
	RefineSmall
)

// String names the outcome for logs and test failures.
func (o RefineOutcome) String() string {
	switch o {
	case RefineDone:
		return "done"
	case RefineExact:
		return "exact"
	case RefineBusy:
		return "busy"
	case RefineSmall:
		return "small"
	default:
		return "unknown"
	}
}

// TryRefineAt attempts one holistic index-refinement action: crack the
// piece containing v at pivot v, without ever blocking a user query.
// minPiece is the optimal piece size (|L1| in values); pieces at or below
// it are left alone.
func (c *Column) TryRefineAt(v int64, minPiece int) RefineOutcome {
	c.global.RLock()
	defer c.global.RUnlock()

	c.mu.RLock()
	key, p, end, _ := c.pieceSpanLocked(v)
	c.mu.RUnlock()
	if key == v {
		return RefineExact
	}
	if end-p.start <= minPiece {
		return RefineSmall
	}
	if !p.latch.TryLock() {
		return RefineBusy
	}
	// Revalidate under the latch.
	c.mu.RLock()
	key2, p2, end2, _ := c.pieceSpanLocked(v)
	c.mu.RUnlock()
	if p2 != p || key2 != key {
		p.latch.Unlock()
		return RefineBusy
	}
	if end2-p.start <= minPiece {
		p.latch.Unlock()
		return RefineSmall
	}
	workers := c.cfg.RefineWorkers
	if workers < 1 {
		workers = 1
	}
	mid := c.partitionWith(p.start, end2, v, workers)
	c.mu.Lock()
	c.tree.Insert(v, &piece{start: mid})
	c.mu.Unlock()
	p.latch.Unlock()
	return RefineDone
}

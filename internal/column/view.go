package column

import (
	"fmt"
	"math/bits"
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
}

// plain reports whether the view is just the base array (no overlay).
func (w View) plain() bool {
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

// FilterRowsInPlace keeps the positions of sel whose current value lies
// in [lo, hi), in order and in sel's storage, which the caller must own;
// rows without a value are dropped. It is the allocation-free refine
// kernel of the conjunctive hot path.
//
//holistic:noalloc
func (w View) FilterRowsInPlace(sel PosList, lo, hi int64, workers int) PosList {
	if w.plain() {
		return parallelFilterRows(sel[:0], w.Base, sel, lo, hi, workers)
	}
	out := sel[:0]
	ulo, span := rangeBits(lo, hi)
	w.walkRows(sel, true, func(p Pos, v int64) {
		if inRange(v, ulo, span) {
			out = append(out, p)
		}
	})
	return out
}

// FilterBitmap is FilterRowsInPlace over a bitmap: it clears from b
// every position whose current value is outside [lo, hi) or that has
// none.
//
//holistic:noalloc
func (w View) FilterBitmap(b *Bitmap, lo, hi int64, workers int) {
	if w.plain() {
		parallelFilterBitmap(w.Base, b, lo, hi, workers)
		return
	}
	ulo, span := rangeBits(lo, hi)
	w.walkBits(b, true, func(p Pos, v int64) {
		if !inRange(v, ulo, span) {
			b.unset(p)
		}
	})
}

// PresentRowsInPlace keeps the positions of sel that have a value in
// this attribute, in sel's storage, which the caller must own — the
// presence filter for aggregate and projection attributes that were not
// among the predicates.
//
//holistic:noalloc
func (w View) PresentRowsInPlace(sel PosList) PosList {
	if w.plain() && allBelow(sel, Pos(len(w.Base))) {
		return sel
	}
	out := sel[:0]
	w.walkRows(sel, true, func(p Pos, _ int64) { out = append(out, p) })
	return out
}

// allBelow reports whether every position of sel is below n: the common
// case where the presence filter of a plain view is the identity.
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

// PresentBitmap is PresentRowsInPlace over a bitmap.
//
//holistic:noalloc
func (w View) PresentBitmap(b *Bitmap) {
	if w.plain() {
		b.clearFrom(len(w.Base))
		return
	}
	w.walkBits(b, true, func(Pos, int64) {})
}

// GatherRows appends the current values at the positions of sel to dst:
// the allocation-free gather the grouped-aggregation and join kernels
// run per chunk of a selection.
//
//holistic:noalloc
func (w View) GatherRows(dst []int64, sel PosList) []int64 {
	return w.gatherRows(dst, sel, 1)
}

// FetchRows returns the current values at the positions of sel, the
// gather split across workers.
func (w View) FetchRows(sel PosList, workers int) []int64 {
	return w.gatherRows(make([]int64, 0, len(sel)), sel, workers)
}

//holistic:noalloc
func (w View) gatherRows(dst []int64, sel PosList, workers int) []int64 {
	if w.plain() {
		return gatherRows(dst, w.Base, sel, workers)
	}
	w.walkRows(sel, false, func(_ Pos, v int64) { dst = append(dst, v) })
	return dst
}

// FetchBitmap appends the current values at the set positions of b to
// dst, in ascending position order.
//
//holistic:noalloc
func (w View) FetchBitmap(b *Bitmap, dst []int64) []int64 {
	if w.plain() {
		return gatherBits(dst, w.Base, b.words)
	}
	w.walkBits(b, false, func(_ Pos, v int64) { dst = append(dst, v) })
	return dst
}

// SumRows folds the sum of the current values at the positions of sel
// without materializing them, the fold split across workers.
//
//holistic:noalloc
func (w View) SumRows(sel PosList, workers int) (s int64) {
	if w.plain() {
		return parallelSumRows(w.Base, sel, workers)
	}
	w.walkRows(sel, false, func(_ Pos, v int64) { s += v })
	return s
}

// SumBitmap folds the sum of the current values at the set positions.
//
//holistic:noalloc
func (w View) SumBitmap(b *Bitmap) (s int64) {
	if w.plain() {
		return SumBitmap(w.Base, b)
	}
	w.walkBits(b, false, func(_ Pos, v int64) { s += v })
	return s
}

// MinMaxRows folds the extrema of the current values at the positions
// of sel and counts them; mn and mx mean something only when n > 0.
//
//holistic:noalloc
func (w View) MinMaxRows(sel PosList) (mn, mx int64, n int) {
	if w.plain() {
		return minMaxRows(w.Base, sel)
	}
	mn, mx = noMin, noMax
	w.walkRows(sel, false, func(_ Pos, v int64) { mn, mx = widen(mn, mx, v) })
	return mn, mx, len(sel)
}

// MinMaxBitmap is MinMaxRows over the set positions of b.
//
//holistic:noalloc
func (w View) MinMaxBitmap(b *Bitmap) (mn, mx int64, n int) {
	if w.plain() {
		return minMaxBits(w.Base, b.words)
	}
	mn, mx = noMin, noMax
	w.walkBits(b, false, func(_ Pos, v int64) { mn, mx = widen(mn, mx, v) })
	return mn, mx, b.Count()
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

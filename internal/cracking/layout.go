package cracking

import (
	"math"
	"slices"

	"holistic/internal/column"
)

// layout says how a cracker column stores a tuple. Wide: the value in
// vals[i] and its rowid in rows[i]. Packed: one word in vals[i] and no
// rows array,
//
//	word = (value - ref - 2^31) << 32 | rowid
//
// so that the signed order of words is the order of (value, rowid) and
// the crack kernel — which only compares and swaps int64s — partitions,
// and moves, one array instead of two. bias is ref + 2^31: a value is its
// word's high half plus bias.
//
// The data picks the layout, never a setting: a column is packed
// whenever all its values lie within one 2^32 window
// [ref, ref + 2^32), and stays packed until an insert falls outside it
// (widen). The tree's keys, the domain cache and every public argument
// are values under both layouts; only reads of vals decode.
type layout struct {
	packed bool
	bias   int64
}

// window is the number of distinct values a packed column can hold.
const window = 1 << 32

// packedAt returns the packed layout whose window starts at ref.
func packedAt(ref int64) layout { return layout{packed: true, bias: ref + 1<<31} }

// ref is the smallest value the window holds.
func (l layout) ref() int64 { return l.bias - 1<<31 }

// fits reports whether v lies inside the window.
//
//holistic:noalloc
func (l layout) fits(v int64) bool {
	return v >= l.ref() && uint64(v)-uint64(l.ref()) < window
}

// word packs a tuple; v must fit.
//
//holistic:noalloc
func (l layout) word(v int64, row uint32) int64 {
	return (v-l.bias)<<32 | int64(row)
}

// value decodes a word's value.
//
//holistic:noalloc
func (l layout) value(w int64) int64 { return w>>32 + l.bias }

// pivot translates a crack at value v into the kernel's terms: words
// below the returned pivot are exactly the tuples with value < v. A v
// past the window's end has no such word — every tuple is below it — and
// reports all instead; a v before its start clamps to the smallest word.
//
//holistic:noalloc
func (l layout) pivot(v int64) (p int64, all bool) {
	switch {
	case !l.packed:
		return v, false
	case v <= l.ref():
		return math.MinInt64, false
	case !l.fits(v):
		return 0, true
	}
	return l.word(v, 0), false
}

// refFor centres a window on the values [lo, hi]; ok is false when they
// span more than one. The clamps keep both window ends inside int64, which
// is what lets fits and word work in plain int64 arithmetic.
func refFor(lo, hi int64) (ref int64, ok bool) {
	span := uint64(hi) - uint64(lo)
	if lo > hi || span >= window {
		return 0, false
	}
	slack := int64((window - 1 - span) / 2)
	switch {
	case lo < math.MinInt64+slack:
		return math.MinInt64, true
	case lo-slack > math.MaxInt64-(window-1):
		return math.MaxInt64 - (window - 1), true
	}
	return lo - slack, true
}

// Segment is a read-only view of one contiguous run of a cracker column's
// tuples, handed to the consumers of SelectSegments, ForEachSegment and
// ForEachPiece under the owning piece's read latch. It answers in values
// and rowids whatever the column's layout; a consumer must not retain it.
type Segment struct {
	vals []int64
	rows []uint32
	layout
}

// Len returns the number of tuples.
func (s Segment) Len() int { return len(s.vals) }

// Value returns the value of tuple i.
//
//holistic:noalloc
func (s Segment) Value(i int) int64 {
	if s.packed {
		return s.value(s.vals[i])
	}
	return s.vals[i]
}

// Row returns the rowid of tuple i.
//
//holistic:noalloc
func (s Segment) Row(i int) uint32 {
	if s.packed {
		return uint32(s.vals[i])
	}
	return s.rows[i]
}

// Sum adds up the values.
//
//holistic:noalloc
func (s Segment) Sum() int64 {
	var sum int64
	if s.packed {
		for _, w := range s.vals {
			sum += w >> 32
		}
		return sum + int64(len(s.vals))*s.bias
	}
	for _, v := range s.vals {
		sum += v
	}
	return sum
}

// Bounds returns the smallest and largest value of a non-empty segment:
// under the packed layout the extrema of the words, decoded.
//
//holistic:noalloc
func (s Segment) Bounds() (mn, mx int64) {
	mn, mx = column.Bounds(s.vals)
	if s.packed {
		mn, mx = s.value(mn), s.value(mx)
	}
	return mn, mx
}

// AppendValues appends the values to dst.
//
//holistic:noalloc
func (s Segment) AppendValues(dst []int64) []int64 {
	if !s.packed {
		dst = append(dst, s.vals...)
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(s.vals))[:n+len(s.vals)]
	for i, w := range s.vals {
		dst[n+i] = s.value(w)
	}
	return dst
}

// AppendRows appends the rowids to dst.
//
//holistic:noalloc
func (s Segment) AppendRows(dst []uint32) []uint32 {
	if !s.packed {
		dst = append(dst, s.rows...)
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, len(s.vals))[:n+len(s.vals)]
	for i, w := range s.vals {
		dst[n+i] = uint32(w)
	}
	return dst
}

// MarkRows sets, in bm, the bit of every tuple's rowid plus rowBase,
// straight off whichever array holds the rowids. With no rowBase the
// bitmap is extended as needed: between a terminal sizing it and this
// segment, a concurrent query can merge a pending insert whose rowid
// lies beyond the universe. With one (mP-CCGI's chunk offset) the ORs are
// atomic, for chunks whose position spans share a boundary word.
//
//holistic:noalloc
func (s Segment) MarkRows(bm *column.Bitmap, rowBase uint32) {
	switch {
	case s.packed && rowBase != 0:
		bm.OrLowRowsAtomic(s.vals, rowBase)
	case s.packed:
		bm.SetLowRowsExtend(s.vals)
	case rowBase != 0:
		bm.OrRowsAtomic(s.rows, rowBase)
	default:
		bm.SetRowsExtend(s.rows)
	}
}

// rowsFrom returns the rowids of the tuples from position from on, as
// many as the layout hands out at once: all of them when the column
// keeps a rowid array, at most len(buf), decoded into buf, when it does
// not. SelectRowsFunc loops until the chunks cover Len.
//
//holistic:noalloc
func (s Segment) rowsFrom(from int, buf []uint32) []uint32 {
	if !s.packed {
		return s.rows[from:]
	}
	words := s.vals[from:min(len(s.vals), from+len(buf))]
	for i, w := range words {
		buf[i] = uint32(w)
	}
	return buf[:len(words)]
}

// find returns the position of the first tuple with value v — and, when
// byRow is set, rowid row — or -1. Under the packed layout a tuple match
// is one word compare, and a value outside the window is in no tuple.
func (s Segment) find(v int64, row uint32, byRow bool) int {
	switch {
	case s.packed && !s.fits(v):
		return -1
	case s.packed && byRow:
		return slices.Index(s.vals, s.word(v, row))
	case s.packed:
		key := s.word(v, 0) >> 32
		return slices.IndexFunc(s.vals, func(w int64) bool { return w>>32 == key })
	}
	for i, x := range s.vals {
		if x == v && (!byRow || s.rows[i] == row) {
			return i
		}
	}
	return -1
}

// lowestRow returns the smallest rowid among the tuples with value v.
// Under the packed layout that is the low half of the smallest word whose
// high half is v's.
//
//holistic:noalloc
func (s Segment) lowestRow(v int64) (row uint32, ok bool) {
	if s.packed {
		if !s.fits(v) {
			return 0, false
		}
		key := s.word(v, 0) >> 32
		for _, w := range s.vals {
			if w>>32 == key && (!ok || uint32(w) < row) {
				row, ok = uint32(w), true
			}
		}
		return row, ok
	}
	for i, x := range s.vals {
		if x == v && (!ok || s.rows[i] < row) {
			row, ok = s.rows[i], true
		}
	}
	return row, ok
}

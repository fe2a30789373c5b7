package cracking

import "math"

// domain returns the smallest and largest value, (0, 0) for none.
func domain(vals []int64) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// build is the fused first touch: it materializes the cracker column of
// base — values, rowids when withRows is set, and the value domain —
// already cracked at lo and hi, reading base once. The copy is itself the
// crack at lo (split); the crack at hi then runs in place over the right
// part, as in crack-in-three. nLo and nHi are the positions of the first
// value >= lo and >= hi. With lo >= hi there is nothing to crack at and
// the copy is a plain one.
//
// One pass over base is the point: a column larger than the caches is
// read at DRAM speed, which on the reference box makes a second pass
// (say, counting bucket sizes first so that one scatter can place all
// three buckets) cost more than the in-place crack it would save.
//
//holistic:alloc-ok allocates the cracker column
func build(base []int64, withRows bool, lo, hi int64) (vals []int64, rows []uint32, nLo, nHi int, dLo, dHi int64) {
	// vals before rows, both times: asking for the larger block first lets
	// the heap hand back the spans the previous build of this size released.
	if lo >= hi {
		vals = append([]int64(nil), base...)
		if withRows {
			rows = make([]uint32, len(base))
			for i := range rows {
				rows[i] = uint32(i)
			}
		}
		dLo, dHi = domain(base)
		return vals, rows, 0, 0, dLo, dHi
	}
	vals = make([]int64, len(base))
	if withRows {
		rows = make([]uint32, len(base))
	}
	nLo, dLo, dHi = split(base, vals, rows, lo)
	nHi = crackInTwo(vals, rows, nil, nLo, len(base), hi)
	return vals, rows, nLo, nHi, dLo, dHi
}

// split copies base into vals partitioned at pivot — values < pivot fill
// vals from the front, values >= pivot from the back — with each value's
// position in base as its rowid (rows may be nil), and returns the split
// position and base's domain. Every value is stored at both cursors and
// only the cursor it belongs to moves, by the arithmetic comparison, so
// nothing in the loop branches on the data; the slot at the other cursor
// is overwritten by a later value, or is the same slot when the cursors
// meet on the last one.
//
//holistic:noalloc
func split(base, vals []int64, rows []uint32, pivot int64) (mid int, dLo, dHi int64) {
	biased := uint64(pivot) ^ signBit
	head, tail := 0, len(base)-1
	dLo, dHi = math.MaxInt64, math.MinInt64
	for i, v := range base {
		vals[head], vals[tail] = v, v
		if rows != nil {
			rows[head], rows[tail] = uint32(i), uint32(i)
		}
		below := int(less(v, biased))
		head += below
		tail -= 1 - below
		if v < dLo {
			dLo = v
		}
		if v > dHi {
			dHi = v
		}
	}
	if len(base) == 0 {
		return 0, 0, 0
	}
	return head, dLo, dHi
}

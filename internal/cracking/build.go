package cracking

import (
	"math"
	"math/bits"
)

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

// sampleStride values, evenly strided, are what the first touch looks at
// to guess where a column's window lies before it has read the column.
const sampleStride = 64

// sampleDomain returns the domain of a strided sample of base.
func sampleDomain(base []int64) (lo, hi int64) {
	if len(base) <= sampleStride {
		return domain(base)
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for i := 0; i < sampleStride; i++ {
		v := base[i*(len(base)/sampleStride)]
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// build is the fused first touch: it materializes the cracker column of
// base — every value with its rowid, and the value domain — already
// cracked at lo and hi, reading base once. The copy is itself the crack at
// lo (split); the crack at hi then runs in place over the right part, as
// in crack-in-three. nLo and nHi are the positions of the first value >=
// lo and >= hi. With lo >= hi there is nothing to crack at and the copy is
// a plain one.
//
// One pass over base is the point: a column larger than the caches is
// read at DRAM speed, which on the reference box makes a second pass
// (say, counting bucket sizes first so that one scatter can place all
// three buckets, or finding the domain before choosing a layout) cost
// more than the in-place crack it would save. So a column is packed on a
// guess: the window is centred on a small sample, the pass itself finds
// the true domain, and the first block to leave the window abandons the
// attempt for the wide layout (splitPacked). A column the sample
// misjudged loses what was packed before that block — one block when the
// stray value comes early, the whole pass when it comes last
// (BenchmarkFirstTouch) — once; the guess never costs exactness.
//
//holistic:alloc-ok allocates the cracker column
func build(base []int64, lo, hi int64) (vals []int64, rows []uint32, lay layout, nLo, nHi int, dLo, dHi int64) {
	if ref, ok := refFor(sampleDomain(base)); ok {
		vals = make([]int64, len(base))
		lay = packedAt(ref)
		if nLo, dLo, dHi, ok = splitPacked(base, vals, lay, lo, lo >= hi); ok {
			nHi = len(base)
			if p, all := lay.pivot(hi); lo < hi && !all {
				nHi = crackInTwo(vals, nil, nLo, nHi, p)
			}
			return vals, nil, lay, nLo, nHi, dLo, dHi
		}
	}
	// The wide layout. vals before rows, both times: asking for the larger
	// block first lets the heap hand back the spans the previous build of
	// this size released.
	if lo >= hi {
		// make and copy, not append: append would round the capacity up,
		// and SizeBytes charges the budget for capacity. Adjacent, the
		// two compile to one allocation that is not zeroed first.
		if vals == nil {
			vals = make([]int64, len(base))
			copy(vals, base)
		} else {
			copy(vals, base) // the abandoned packing attempt's array
		}
		rows = make([]uint32, len(base))
		for i := range rows {
			rows[i] = uint32(i)
		}
		dLo, dHi = domain(base)
		return vals, rows, layout{}, 0, 0, dLo, dHi
	}
	if vals == nil {
		vals = make([]int64, len(base))
	}
	rows = make([]uint32, len(base))
	nLo, dLo, dHi = split(base, vals, rows, lo)
	nHi = crackInTwo(vals, rows, nLo, len(base), hi)
	return vals, rows, layout{}, nLo, nHi, dLo, dHi
}

// split copies base into vals partitioned at pivot — values < pivot fill
// vals from the front, values >= pivot from the back — with each value's
// position in base as its rowid in rows, and returns the split
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
		rows[head], rows[tail] = uint32(i), uint32(i)
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

// packBlock is how many values splitPacked packs between two looks at
// the domain it has seen so far.
const packBlock = 64 << 10

// splitPacked is split under the packed layout: one word per tuple, one
// store per cursor. The comparison is made on the value's offset into the
// window, which — unlike a word — can also express a pivot at or past
// the window's end; whole puts every tuple below the pivot, which makes
// the split the plain copy in base order. ok turns false, and words hold
// nothing of use, as soon as a block ends with the domain outside the
// window; until then offsets that do not fit have been packed into
// garbage, which is why the check is exact although it is not per value.
//
//holistic:noalloc
func splitPacked(base, words []int64, lay layout, pivot int64, whole bool) (mid int, dLo, dHi int64, ok bool) {
	ref := lay.ref()
	pk := uint64(window)
	switch {
	case whole:
	case pivot <= ref:
		pk = 0
	case lay.fits(pivot):
		pk = uint64(pivot) - uint64(ref)
	}
	head, tail := 0, len(base)-1
	dLo, dHi = math.MaxInt64, math.MinInt64
	for start := 0; start < len(base); start += packBlock {
		for i, v := range base[start:min(start+packBlock, len(base))] {
			d := uint64(v) - uint64(ref)
			w := int64(d<<32^signBit) | int64(start+i)
			words[head], words[tail] = w, w
			_, below := bits.Sub64(d, pk, 0)
			head += int(below)
			tail -= 1 - int(below)
			if v < dLo {
				dLo = v
			}
			if v > dHi {
				dHi = v
			}
		}
		if !lay.fits(dLo) || !lay.fits(dHi) {
			return 0, 0, 0, false
		}
	}
	if len(base) == 0 {
		return 0, 0, 0, true
	}
	return head, dLo, dHi, true
}

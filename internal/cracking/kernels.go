package cracking

import (
	"math/bits"

	"holistic/internal/column"
)

const signBit = 1 << 63

// less returns 1 when v < pivot and 0 otherwise, as arithmetic: biased is
// the pivot with its sign bit flipped, which maps signed order onto
// unsigned order, and the borrow of the unsigned subtraction is the
// comparison. Exact over the whole int64 range (v-pivot may overflow;
// the borrow cannot), and never compiled to a branch.
//
//holistic:noalloc
func less(v int64, biased uint64) uint8 {
	_, borrow := bits.Sub64(uint64(v)^signBit, biased, 0)
	return uint8(borrow)
}

// crackInTwo partitions vals[lo:hi] in place so that values < pivot
// precede values >= pivot and returns the index of the first value
// >= pivot; rows (when non-nil) are permuted in lockstep. It is a
// branch-free Lomuto partition (Alexandrescu, CppCon 2019): s[:first]
// holds the values < pivot seen so far and s[first:i] the others, every
// step swaps s[i] with s[first] unconditionally, and first advances by
// the comparison's outcome, so no branch depends on the data wherever
// the split falls.
//
//holistic:noalloc
func crackInTwo(vals []int64, rows []uint32, lo, hi int, pivot int64) int {
	biased := uint64(pivot) ^ signBit
	s, first := vals[lo:hi], 0
	if rows == nil {
		for i, x := range s {
			s[i] = s[first]
			s[first] = x
			first += int(less(x, biased))
		}
		return lo + first
	}
	r := rows[lo:hi]
	for i, x := range s {
		y := r[i]
		s[i], r[i] = s[first], r[first]
		s[first], r[first] = x, y
		first += int(less(x, biased))
	}
	return lo + first
}

// swapRuns exchanges s[a:a+n] with s[b:b+n]; the runs must not overlap.
//
//holistic:noalloc
func swapRuns[T int64 | uint32](s []T, a, b, n int) {
	x, y := s[a:a+n], s[b:b+n]
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}

// parallelCrack is the refined partition & merge algorithm of Figure 4
// (Pirk et al., DaMoN 2014): the piece is sliced across workers
// goroutines, each partitions its slice in place with crackInTwo, and the
// merge swaps the runs that ended up on the wrong side of the global
// split — the >= pivot runs left of it with the < pivot runs right of it
// — which moves exactly the misplaced values and needs no scratch space.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func parallelCrack(vals []int64, rows []uint32, lo, hi int, pivot int64, workers int) int {
	// Slice w is [starts[w], starts[w+1]) and crackInTwo split it at mids[w].
	starts := make([]int, workers+1)
	mids := make([]int, workers)
	workers = column.ForChunks(hi-lo, workers, 1, func(w, start, end int) {
		starts[w] = lo + start
		mids[w] = crackInTwo(vals, rows, lo+start, lo+end, pivot)
	})
	starts[workers] = hi

	split := lo
	for w, m := range mids[:workers] {
		split += m - starts[w]
	}
	// [a, aEnd) is a run of values >= pivot left of split, [b, bEnd) a run
	// of values < pivot right of it; both kinds total the same length.
	var a, aEnd, b, bEnd, wa, wb int
	for {
		for a >= aEnd && wa < workers {
			a, aEnd = mids[wa], min(starts[wa+1], split)
			wa++
		}
		for b >= bEnd && wb < workers {
			b, bEnd = max(starts[wb], split), mids[wb]
			wb++
		}
		if a >= aEnd || b >= bEnd {
			return split
		}
		k := min(aEnd-a, bEnd-b)
		swapRuns(vals, a, b, k)
		if rows != nil {
			swapRuns(rows, a, b, k)
		}
		a, b = a+k, b+k
	}
}

// partition cracks vals[lo:hi] at pivot with the user-query thread
// budget. Caller holds the piece's write latch.
//
//holistic:noalloc
func (c *Column) partition(lo, hi int, pivot int64) int {
	return c.partitionWith(lo, hi, pivot, c.cfg.ParallelWorkers)
}

// partitionWith cracks vals[lo:hi] at the value pivot with an explicit
// thread budget; holistic refinement passes its own (RefineWorkers). This
// is where a crack learns the layout, and all it learns is its pivot: the
// kernels see int64s to compare and swap, values or packed words alike.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func (c *Column) partitionWith(lo, hi int, pivot int64, workers int) int {
	pivot, all := c.pivot(pivot)
	if all {
		return hi
	}
	if workers > 1 && hi-lo >= c.cfg.MinParallelPiece {
		return parallelCrack(c.vals, c.rows, lo, hi, pivot, workers)
	}
	return crackInTwo(c.vals, c.rows, lo, hi, pivot)
}

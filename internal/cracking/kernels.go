package cracking

import (
	"math/bits"
	"sync"
)

// blockSize is the number of values the crack kernel classifies from each
// end before it swaps: large enough to amortize the swap loop's set-up,
// small enough that a block's offsets fit a byte and both blocks plus
// their offset buffers stay in L1 (Edelkamp & Weiß, BlockQuicksort).
const blockSize = 128

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

// classify records in off the offsets of the block's values that sit on
// the wrong side of the pivot and returns how many there are: values
// >= pivot when misplaced is 1 (a left block), values < pivot when it is
// 0 (a right block). Every offset is stored unconditionally and the
// cursor advances by the comparison's outcome, so control flow does not
// depend on the data; off is oversized so a byte cursor needs no bounds
// check.
//
//holistic:noalloc
func classify(blk *[blockSize]int64, off *[256]uint8, biased uint64, misplaced uint8) int {
	var n uint8
	for i := 0; i < blockSize; i += 4 {
		q := (*[4]int64)(blk[i:])
		off[n] = uint8(i)
		n += less(q[0], biased) ^ misplaced
		off[n] = uint8(i + 1)
		n += less(q[1], biased) ^ misplaced
		off[n] = uint8(i + 2)
		n += less(q[2], biased) ^ misplaced
		off[n] = uint8(i + 3)
		n += less(q[3], biased) ^ misplaced
	}
	return int(n)
}

// swapPairs exchanges left[offL[k]] with right[offR[k]] for every k.
//
//holistic:noalloc
func swapPairs[T int64 | uint32](left, right *[blockSize]T, offL, offR []uint8) {
	offR = offR[:len(offL)]
	for k, a := range offL {
		a, b := a&(blockSize-1), offR[k]&(blockSize-1)
		left[a], right[b] = right[b], left[a]
	}
}

// crackInTwo partitions vals[lo:hi] in place so that values < pivot
// precede values >= pivot and returns the index of the first value
// >= pivot; rows (when non-nil) and every sideways payload are permuted
// in lockstep. It is a block partition: one block from each end is
// classified into offset buffers, the misplaced pairs are swapped, and
// whichever block has no misplaced value left gives way to the next one;
// the classic two-cursor loop finishes what is left when fewer than two
// blocks remain.
//
//holistic:noalloc
func crackInTwo(vals []int64, rows []uint32, payloads [][]int64, lo, hi int, pivot int64) int {
	biased := uint64(pivot) ^ signBit
	var offL, offR [256]uint8
	var numL, numR, startL, startR int
	l, r := lo, hi
	for r-l >= 2*blockSize {
		left, right := (*[blockSize]int64)(vals[l:]), (*[blockSize]int64)(vals[r-blockSize:])
		if numL == 0 {
			startL, numL = 0, classify(left, &offL, biased, 1)
		}
		if numR == 0 {
			startR, numR = 0, classify(right, &offR, biased, 0)
		}
		n := min(numL, numR)
		ol, or := offL[startL:startL+n], offR[startR:startR+n]
		swapPairs(left, right, ol, or)
		if rows != nil {
			swapPairs((*[blockSize]uint32)(rows[l:]), (*[blockSize]uint32)(rows[r-blockSize:]), ol, or)
		}
		for _, p := range payloads {
			swapPairs((*[blockSize]int64)(p[l:]), (*[blockSize]int64)(p[r-blockSize:]), ol, or)
		}
		numL, startL = numL-n, startL+n
		numR, startR = numR-n, startR+n
		if numL == 0 {
			l += blockSize
		}
		if numR == 0 {
			r -= blockSize
		}
	}
	// A block that still has misplaced values stays inside [l, r) and is
	// simply partitioned again.
	i, j := l, r-1
	for {
		for i <= j && vals[i] < pivot {
			i++
		}
		for i <= j && vals[j] >= pivot {
			j--
		}
		if i >= j {
			return i
		}
		vals[i], vals[j] = vals[j], vals[i]
		if rows != nil {
			rows[i], rows[j] = rows[j], rows[i]
		}
		for _, p := range payloads {
			p[i], p[j] = p[j], p[i]
		}
		i++
		j--
	}
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
func parallelCrack(vals []int64, rows []uint32, payloads [][]int64, lo, hi int, pivot int64, workers int) int {
	n := hi - lo
	workers = max(1, min(workers, n))
	starts := make([]int, workers+1)
	for w := range starts {
		starts[w] = lo + w*n/workers
	}
	mids := make([]int, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mids[w] = crackInTwo(vals, rows, payloads, starts[w], starts[w+1], pivot)
		}(w)
	}
	mids[0] = crackInTwo(vals, rows, payloads, starts[0], starts[1], pivot)
	wg.Wait()

	split := lo
	for w, m := range mids {
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
		for _, p := range payloads {
			swapRuns(p, a, b, k)
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
		return parallelCrack(c.vals, c.rows, c.payloads, lo, hi, pivot, workers)
	}
	return crackInTwo(c.vals, c.rows, c.payloads, lo, hi, pivot)
}

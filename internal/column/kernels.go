package column

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// The kernels are built from three primitives, each written once:
//
//   - ForChunks, the only goroutine fan-out;
//   - one closure-free loop per (source × fold): a dense range of vals →
//     count, sum, min/max, positions, bits; a position list → filter,
//     gather, sum, min/max; the set bits of a Bitmap → filter, gather,
//     sum, min/max (bitmap.go);
//   - two overlay walkers that resolve positions through View.At for
//     views that are more than their base array (view.go).
//
// A "door" is an exported entry that picks between calling a loop
// directly and fanning it out. A closure handed to ForChunks escapes to
// the heap where it is built, even when the call would have stayed
// sequential, so every door tests workers and size first and only then
// builds one: that ordering is what keeps the sequential doors at zero
// allocations.

// minParallelScan and minParallelSel are the input sizes below which a
// door runs its loop on the calling goroutine: a dense scan pays for a
// fan-out from a couple of thousand values, a positional probe — a
// handful of nanoseconds each — only from tens of thousands.
const (
	minParallelScan = 2 * 1024
	minParallelSel  = 1 << 15
)

// ForChunks splits [0, n) into at most workers contiguous chunks, every
// chunk start a multiple of align, and runs fn(w, start, end) for chunk
// number w on its own goroutine; it returns, once all have, how many
// chunks ran. Chunks are never empty, so fewer than workers run when n
// is small. align = 64 gives writers of a shared bitmap whole words
// each.
func ForChunks(n, workers, align int, fn func(w, start, end int)) int {
	workers = max(workers, 1)
	chunk := ((n+workers-1)/workers + align - 1) / align * align
	var wg sync.WaitGroup
	ran := 0
	for w, start := 0, 0; start < n; w, start = w+1, start+chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, start, min(start+chunk, n))
		}()
		ran++
	}
	wg.Wait()
	return ran
}

// signBit biases int64 values into order-preserving uint64 space, so
// lo <= v < hi collapses to one unsigned compare: (u(v)-u(lo)) < span.
const signBit = 1 << 63

// rangeBits returns the biased lower bound and span of [lo, hi) for
// inRange and laneBit. An empty or inverted range has span 0, which no
// value is below: every kernel rejects it by construction.
//
//holistic:noalloc
func rangeBits(lo, hi int64) (ulo, span uint64) {
	if hi <= lo {
		return 0, 0
	}
	ulo = uint64(lo) ^ signBit
	return ulo, (uint64(hi) ^ signBit) - ulo
}

// inRange is the range test of every loop that branches on it.
//
//holistic:noalloc
func inRange(v int64, ulo, span uint64) bool { return (uint64(v)^signBit)-ulo < span }

// laneBit is inRange as a 0/1 word through the subtract's borrow, for
// the loops that assemble bitmap words: no branch, so a 50 %-selective
// scan mispredicts nothing.
//
//holistic:noalloc
func laneBit(v int64, ulo, span uint64) uint64 {
	_, lt := bits.Sub64((uint64(v)^signBit)-ulo, span, 0)
	return lt
}

// noMin and noMax are what a min/max fold starts from, so that widen
// needs no "first value" case; a fold that saw no value returns them
// with n = 0.
const noMin, noMax = math.MaxInt64, math.MinInt64

// widen folds one more value into running extrema.
//
//holistic:noalloc
func widen(mn, mx, v int64) (int64, int64) { return min(mn, v), max(mx, v) }

// --- dense range of vals → fold ---

// CountRange returns |{p : lo <= vals[p] < hi}| without materializing
// positions.
//
//holistic:noalloc
func CountRange(vals []int64, lo, hi int64) int {
	ulo, span := rangeBits(lo, hi)
	n := 0
	for _, v := range vals {
		if inRange(v, ulo, span) {
			n++
		}
	}
	return n
}

// sumRange returns the sum of the qualifying values.
//
//holistic:noalloc
func sumRange(vals []int64, lo, hi int64) int64 {
	ulo, span := rangeBits(lo, hi)
	var s int64
	for _, v := range vals {
		if inRange(v, ulo, span) {
			s += v
		}
	}
	return s
}

// minMaxRange returns the extrema of the qualifying values and how many
// qualified; mn and mx mean something only when n > 0.
//
//holistic:noalloc
func minMaxRange(vals []int64, lo, hi int64) (mn, mx int64, n int) {
	ulo, span := rangeBits(lo, hi)
	mn, mx = noMin, noMax
	for _, v := range vals {
		if inRange(v, ulo, span) {
			mn, mx = widen(mn, mx, v)
			n++
		}
	}
	return mn, mx, n
}

// appendRange appends off+i for every qualifying vals[i] to dst.
//
//holistic:noalloc
func appendRange(dst PosList, vals []int64, off Pos, lo, hi int64) PosList {
	ulo, span := rangeBits(lo, hi)
	for i, v := range vals {
		if inRange(v, ulo, span) {
			dst = append(dst, off+Pos(i))
		}
	}
	return dst
}

// ParallelCountRange is CountRange over workers contiguous chunks
// counted concurrently: the paper's "parallel select operator" baseline
// (plain scans by all threads, Section 5.1).
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelCountRange(vals []int64, lo, hi int64, workers int) int {
	if workers < 2 || len(vals) < minParallelScan {
		return CountRange(vals, lo, hi)
	}
	return int(sumChunks(len(vals), workers, func(start, end int) int64 {
		return int64(CountRange(vals[start:end], lo, hi))
	}))
}

// sumChunks fans part out over [0, n) and adds up what the chunks return:
// the parallel half of every door whose fold is a sum.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func sumChunks(n, workers int, part func(start, end int) int64) int64 {
	parts := make([]int64, workers)
	ForChunks(n, workers, 1, func(w, start, end int) { parts[w] = part(start, end) })
	var total int64
	for _, s := range parts {
		total += s
	}
	return total
}

// ParallelSumRange returns the sum of the values in [lo, hi), the scan
// split across workers.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelSumRange(vals []int64, lo, hi int64, workers int) int64 {
	if workers < 2 || len(vals) < minParallelScan {
		return sumRange(vals, lo, hi)
	}
	return sumChunks(len(vals), workers, func(start, end int) int64 {
		return sumRange(vals[start:end], lo, hi)
	})
}

// ParallelMinMaxRange returns the extrema of the values in [lo, hi) and
// how many there are, the scan split across workers; mn and mx mean
// something only when n > 0.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelMinMaxRange(vals []int64, lo, hi int64, workers int) (mn, mx int64, n int) {
	if workers < 2 || len(vals) < minParallelScan {
		return minMaxRange(vals, lo, hi)
	}
	type part struct {
		mn, mx int64
		n      int
	}
	parts := make([]part, workers)
	ForChunks(len(vals), workers, 1, func(w, start, end int) {
		p := &parts[w]
		p.mn, p.mx, p.n = minMaxRange(vals[start:end], lo, hi)
	})
	mn, mx = noMin, noMax
	for _, p := range parts {
		if p.n > 0 { // a chunk that never ran is all zeroes, not noMin/noMax
			mn, mx, n = min(mn, p.mn), max(mx, p.mx), n+p.n
		}
	}
	return mn, mx, n
}

// ScanRange returns the positions p with lo <= vals[p] < hi, in position
// order. This is the no-indexing select operator: O(N) data accesses.
func ScanRange(vals []int64, lo, hi int64) PosList {
	return appendRange(make(PosList, 0, len(vals)/8), vals, 0, lo, hi)
}

// ParallelScanRange is ScanRange split across workers, preserving
// position order. The per-worker lists are pooled, so a warm call
// allocates only the list it returns.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelScanRange(vals []int64, lo, hi int64, workers int) PosList {
	if workers < 2 || len(vals) < minParallelScan {
		return ScanRange(vals, lo, hi)
	}
	ws := getWorkerLists(workers)
	ForChunks(len(vals), workers, 1, func(w, start, end int) {
		ws.lists[w] = appendRange(ws.lists[w], vals[start:end], Pos(start), lo, hi)
	})
	out := ws.concat(nil)
	workerListsPool.Put(ws)
	return out
}

// --- position list → fold ---

// filterRows appends to dst the positions of sel whose value lies in
// [lo, hi), in order. dst may be sel[:0]: the output never outruns the
// input. A position at or beyond len(vals) has no value and is dropped.
//
//holistic:noalloc
func filterRows(dst PosList, vals []int64, sel PosList, lo, hi int64) PosList {
	ulo, span := rangeBits(lo, hi)
	n := Pos(len(vals))
	for _, p := range sel {
		if p < n && inRange(vals[p], ulo, span) {
			dst = append(dst, p)
		}
	}
	return dst
}

// gather writes vals[sel[i]] to out[i]: the late tuple-reconstruction
// operator of Section 3.1 ("a project operator fetches the values
// residing in attribute B at the positions specified by the intermediate
// result"). Every position must be in range.
//
//holistic:noalloc
func gather(out, vals []int64, sel PosList) {
	out = out[:len(sel)]
	for i, p := range sel {
		out[i] = vals[p]
	}
}

// sumRows folds sum(vals[p]) over sel; every position must be in range.
//
//holistic:noalloc
func sumRows(vals []int64, sel PosList) int64 {
	var s int64
	for _, p := range sel {
		s += vals[p]
	}
	return s
}

// minMaxRows folds the extrema of vals over sel; every position must be
// in range.
//
//holistic:noalloc
func minMaxRows(vals []int64, sel PosList) (mn, mx int64, n int) {
	mn, mx = noMin, noMax
	for _, p := range sel {
		mn, mx = widen(mn, mx, vals[p])
	}
	return mn, mx, len(sel)
}

// parallelFilterRows is the residual-predicate door of conjunctive
// selection: after the most selective conjunct produced the candidates
// sel, every other conjunct is a positional probe into its base array
// instead of another select. Survivors are appended to dst, which may be
// sel[:0]; a nil dst is allocated here — for len(sel) when sequential,
// at the exact total after a fan-out.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func parallelFilterRows(dst PosList, vals []int64, sel PosList, lo, hi int64, workers int) PosList {
	if workers < 2 || len(sel) < minParallelSel {
		if dst == nil {
			dst = make(PosList, 0, len(sel))
		}
		return filterRows(dst, vals, sel, lo, hi)
	}
	ws := getWorkerLists(workers)
	ForChunks(len(sel), workers, 1, func(w, start, end int) {
		ws.lists[w] = filterRows(ws.lists[w], vals, sel[start:end], lo, hi)
	})
	dst = ws.concat(dst)
	workerListsPool.Put(ws)
	return dst
}

// FilterRows keeps the positions of sel whose value in vals lies in
// [lo, hi), preserving order; positions without a value are dropped.
func FilterRows(vals []int64, sel PosList, lo, hi int64) PosList {
	return parallelFilterRows(nil, vals, sel, lo, hi, 1)
}

// ParallelFilterRows is FilterRows with the probes split across workers.
func ParallelFilterRows(vals []int64, sel PosList, lo, hi int64, workers int) PosList {
	return parallelFilterRows(nil, vals, sel, lo, hi, workers)
}

// gatherRows appends vals at the positions of sel to dst, the gather
// split across workers; every position must be in range.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func gatherRows(dst, vals []int64, sel PosList, workers int) []int64 {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	out := dst[n:]
	if workers < 2 || len(sel) < minParallelSel {
		gather(out, vals, sel)
		return dst
	}
	ForChunks(len(sel), workers, 1, func(_, start, end int) {
		gather(out[start:end], vals, sel[start:end])
	})
	return dst
}

// FetchRows returns vals at the positions of sel; every position must
// be in range.
func FetchRows(vals []int64, sel PosList) []int64 {
	return gatherRows(nil, vals, sel, 1)
}

// parallelSumRows is sumRows split across workers.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func parallelSumRows(vals []int64, sel PosList, workers int) int64 {
	if workers < 2 || len(sel) < minParallelSel {
		return sumRows(vals, sel)
	}
	return sumChunks(len(sel), workers, func(start, end int) int64 {
		return sumRows(vals, sel[start:end])
	})
}

// workerLists is the pooled per-worker output of the doors that
// materialize positions: each worker appends into its own retained
// list, so a warm fan-out allocates nothing.
type workerLists struct {
	lists []PosList
}

var workerListsPool = sync.Pool{New: func() any { return new(workerLists) }}

//holistic:alloc-ok pool warm-up allocates the recycled object
func getWorkerLists(workers int) *workerLists {
	p := workerListsPool.Get().(*workerLists)
	if cap(p.lists) < workers {
		p.lists = make([]PosList, workers)
	} else {
		p.lists = p.lists[:workers]
	}
	for i := range p.lists {
		p.lists[i] = p.lists[i][:0]
	}
	return p
}

// concat appends the lists in worker order to dst, allocated at the
// exact total when nil.
//
//holistic:alloc-ok sizes the returned list
func (p *workerLists) concat(dst PosList) PosList {
	if dst == nil {
		total := 0
		for _, l := range p.lists {
			total += len(l)
		}
		dst = make(PosList, 0, total)
	}
	for _, l := range p.lists {
		dst = append(dst, l...)
	}
	return dst
}

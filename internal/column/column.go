// Package column provides the storage substrate of the column-store:
// dense fixed-width arrays, tight-loop scan kernels, selection vectors
// (position lists) and dictionary encoding for string attributes.
//
// It mirrors the storage model the paper assumes (Section 3.1): every
// relational table is vertically fragmented into one dense array per
// attribute, values of one tuple share the same position across arrays,
// and operators work on whole columns at a time with tight for loops.
package column

import (
	"fmt"
	"sync"
)

// Pos is a tuple position (row id) inside a column. 32 bits cover the
// column sizes this repository targets (the paper's 2^30 also fits).
type Pos = uint32

// PosList is a selection vector: the positions of qualifying tuples in
// the order they were found. It is the intermediate result a select
// operator hands to downstream project operators.
type PosList []Pos

// Column is a dense, fixed-width, in-memory integer column. Non-integer
// attribute types are mapped onto int64 by the layers above (dates become
// day numbers, decimals become scaled integers, strings become dictionary
// codes), exactly as a fixed-width column-store would store them.
type Column struct {
	name string
	vals []int64
	// lo, hi are Bounds(vals) when bounded is set: see NewBounded.
	lo, hi  int64
	bounded bool
}

// New creates a column that takes ownership of vals.
func New(name string, vals []int64) *Column {
	return &Column{name: name, vals: vals}
}

// NewBounded is New for values whose Bounds the caller already holds — a
// loader that has just decoded every one of them — so that no reader has
// to scan the column for them again.
func NewBounded(name string, vals []int64, lo, hi int64) *Column {
	return &Column{name: name, vals: vals, lo: lo, hi: hi, bounded: true}
}

// KnownBounds returns Bounds(Values()) without a scan when the column was
// built knowing them.
func (c *Column) KnownBounds() (lo, hi int64, ok bool) { return c.lo, c.hi, c.bounded }

// Name returns the attribute name.
func (c *Column) Name() string { return c.name }

// Len returns the number of tuples.
func (c *Column) Len() int { return len(c.vals) }

// Values exposes the underlying array. Callers must treat it as read-only;
// operators use it to run tight scan loops without copying.
func (c *Column) Values() []int64 { return c.vals }

// At returns the value at position p.
func (c *Column) At(p Pos) int64 { return c.vals[p] }

// Append adds a value at the end of the column and returns its position.
func (c *Column) Append(v int64) Pos {
	if c.bounded {
		if len(c.vals) == 0 {
			c.lo, c.hi = v, v
		}
		c.lo, c.hi = min(c.lo, v), max(c.hi, v)
	}
	c.vals = append(c.vals, v)
	return Pos(len(c.vals) - 1)
}

// ScanRange returns the positions p with lo <= vals[p] < hi, in position
// order. This is the no-indexing select operator: O(N) data accesses.
func ScanRange(vals []int64, lo, hi int64) PosList {
	out := make(PosList, 0, len(vals)/8)
	for i, v := range vals {
		if v >= lo && v < hi {
			out = append(out, Pos(i))
		}
	}
	return out
}

// CountRange returns |{p : lo <= vals[p] < hi}| without materializing
// positions.
//
//holistic:noalloc
func CountRange(vals []int64, lo, hi int64) int {
	n := 0
	for _, v := range vals {
		if v >= lo && v < hi {
			n++
		}
	}
	return n
}

// SumRange returns the sum of qualifying values; the cheapest aggregate
// the microbenchmarks consume so that selects cannot be optimized away.
//
//holistic:noalloc
func SumRange(vals []int64, lo, hi int64) int64 {
	var s int64
	for _, v := range vals {
		if v >= lo && v < hi {
			s += v
		}
	}
	return s
}

// MinMaxRange returns the minimum and maximum of the qualifying values
// and how many qualified; min/max are meaningful only when n > 0.
//
//holistic:noalloc
func MinMaxRange(vals []int64, lo, hi int64) (mn, mx int64, n int) {
	for _, v := range vals {
		if v >= lo && v < hi {
			if n == 0 || v < mn {
				mn = v
			}
			if n == 0 || v > mx {
				mx = v
			}
			n++
		}
	}
	return mn, mx, n
}

// ParallelCountRange splits vals into workers contiguous chunks counted
// concurrently. It implements the paper's "parallel select operator"
// baseline (plain scans by 32 threads in Section 5.1).
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelCountRange(vals []int64, lo, hi int64, workers int) int {
	if workers < 2 || len(vals) < 2*1024 {
		return CountRange(vals, lo, hi)
	}
	counts := make([]int, workers)
	var wg sync.WaitGroup
	chunk := (len(vals) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(vals) {
			break
		}
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			counts[w] = CountRange(vals[start:end], lo, hi)
		}(w, start, end)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// ParallelSumRange is the aggregating variant of ParallelCountRange.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelSumRange(vals []int64, lo, hi int64, workers int) int64 {
	if workers < 2 || len(vals) < 2*1024 {
		return SumRange(vals, lo, hi)
	}
	sums := make([]int64, workers)
	var wg sync.WaitGroup
	chunk := (len(vals) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(vals) {
			break
		}
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			sums[w] = SumRange(vals[start:end], lo, hi)
		}(w, start, end)
	}
	wg.Wait()
	var total int64
	for _, s := range sums {
		total += s
	}
	return total
}

// ParallelMinMaxRange is the min/max variant of ParallelCountRange.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelMinMaxRange(vals []int64, lo, hi int64, workers int) (mn, mx int64, n int) {
	if workers < 2 || len(vals) < 2*1024 {
		return MinMaxRange(vals, lo, hi)
	}
	mins := make([]int64, workers)
	maxs := make([]int64, workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	chunk := (len(vals) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(vals) {
			break
		}
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			mins[w], maxs[w], counts[w] = MinMaxRange(vals[start:end], lo, hi)
		}(w, start, end)
	}
	wg.Wait()
	for w := range counts {
		if counts[w] == 0 {
			continue
		}
		if n == 0 || mins[w] < mn {
			mn = mins[w]
		}
		if n == 0 || maxs[w] > mx {
			mx = maxs[w]
		}
		n += counts[w]
	}
	return mn, mx, n
}

// ParallelScanRange materializes qualifying positions using workers
// goroutines, preserving global position order. The per-worker output
// slices come from a pool, so steady-state calls allocate only the
// returned list.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelScanRange(vals []int64, lo, hi int64, workers int) PosList {
	if workers < 2 || len(vals) < 2*1024 {
		return ScanRange(vals, lo, hi)
	}
	ws := getWorkerLists(workers)
	var wg sync.WaitGroup
	chunk := (len(vals) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(vals) {
			break
		}
		end := start + chunk
		if end > len(vals) {
			end = len(vals)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			local := ws.lists[w]
			for i := start; i < end; i++ {
				v := vals[i]
				if v >= lo && v < hi {
					local = append(local, Pos(i))
				}
			}
			ws.lists[w] = local
		}(w, start, end)
	}
	wg.Wait()
	total := 0
	for _, p := range ws.lists {
		total += len(p)
	}
	out := make(PosList, 0, total)
	for _, p := range ws.lists {
		out = append(out, p...)
	}
	putWorkerLists(ws)
	return out
}

// Project fetches src values at the given positions: the late
// tuple-reconstruction operator of Section 3.1 ("a project operator
// fetches the values residing in attribute B at the positions specified
// by the intermediate result").
func Project(src []int64, sel PosList) []int64 {
	out := make([]int64, len(sel))
	for i, p := range sel {
		out[i] = src[p]
	}
	return out
}

// FilterRows keeps the positions of sel whose value in vals lies in
// [lo, hi), preserving order. It is the residual-predicate kernel of
// conjunctive selection: after the most selective conjunct produced a
// candidate position list, every remaining conjunct is evaluated by
// positional probes into its base array instead of another full select.
// Positions at or beyond len(vals) are dropped (no value means the
// predicate cannot hold).
func FilterRows(vals []int64, sel PosList, lo, hi int64) PosList {
	return AppendFilterRows(make(PosList, 0, len(sel)), vals, sel, lo, hi)
}

// AppendFilterRows is FilterRows appending into dst, which may alias
// sel (the output never outruns the input), so refine stages can filter
// a candidate list in place without allocating.
//
//holistic:noalloc
func AppendFilterRows(dst PosList, vals []int64, sel PosList, lo, hi int64) PosList {
	n := Pos(len(vals))
	for _, p := range sel {
		if p < n {
			if v := vals[p]; v >= lo && v < hi {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// FilterRowsInPlace filters sel in place and returns the shortened
// list; the caller must own sel's storage.
//
//holistic:noalloc
func FilterRowsInPlace(vals []int64, sel PosList, lo, hi int64) PosList {
	return AppendFilterRows(sel[:0], vals, sel, lo, hi)
}

// minParallelSel is the candidate-list length below which the parallel
// probe kernels fall back to their sequential forms: positional probes
// are a handful of nanoseconds each, so small lists are not worth the
// goroutine fan-out.
const minParallelSel = 1 << 15

// ParallelFilterRows is FilterRows with the probe loop split across
// workers contiguous chunks of the candidate list; output order is
// preserved. Per-worker outputs are pooled, so only the returned list
// is allocated.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelFilterRows(vals []int64, sel PosList, lo, hi int64, workers int) PosList {
	if workers < 2 || len(sel) < minParallelSel {
		return FilterRows(vals, sel, lo, hi)
	}
	ws := parallelFilterParts(vals, sel, lo, hi, workers)
	total := 0
	for _, p := range ws.lists {
		total += len(p)
	}
	out := make(PosList, 0, total)
	for _, p := range ws.lists {
		out = append(out, p...)
	}
	putWorkerLists(ws)
	return out
}

// ParallelFilterRowsInPlace is ParallelFilterRows writing the surviving
// positions back into sel's storage (which the caller must own),
// allocating nothing once the worker pools are warm.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelFilterRowsInPlace(vals []int64, sel PosList, lo, hi int64, workers int) PosList {
	if workers < 2 || len(sel) < minParallelSel {
		return FilterRowsInPlace(vals, sel, lo, hi)
	}
	ws := parallelFilterParts(vals, sel, lo, hi, workers)
	out := sel[:0]
	for _, p := range ws.lists {
		out = append(out, p...)
	}
	putWorkerLists(ws)
	return out
}

// parallelFilterParts runs the chunked probe fan-out into pooled
// per-worker lists; the caller concatenates and releases them.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func parallelFilterParts(vals []int64, sel PosList, lo, hi int64, workers int) *workerLists {
	ws := getWorkerLists(workers)
	var wg sync.WaitGroup
	chunk := (len(sel) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(sel) {
			break
		}
		end := start + chunk
		if end > len(sel) {
			end = len(sel)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			ws.lists[w] = AppendFilterRows(ws.lists[w], vals, sel[start:end], lo, hi)
		}(w, start, end)
	}
	wg.Wait()
	return ws
}

// FetchRows gathers the values of vals at the given positions — the same
// operation as Project, named from the perspective of the conjunctive
// query pipeline (fetch the aggregate/projection attribute at the
// surviving candidate positions). All positions must be in range.
func FetchRows(vals []int64, sel PosList) []int64 {
	return Project(vals, sel)
}

// ParallelFetchRows is FetchRows with the gather split across workers.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelFetchRows(vals []int64, sel PosList, workers int) []int64 {
	if workers < 2 || len(sel) < minParallelSel {
		return FetchRows(vals, sel)
	}
	out := make([]int64, len(sel))
	var wg sync.WaitGroup
	chunk := (len(sel) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(sel) {
			break
		}
		end := start + chunk
		if end > len(sel) {
			end = len(sel)
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			for i := start; i < end; i++ {
				out[i] = vals[sel[i]]
			}
		}(start, end)
	}
	wg.Wait()
	return out
}

// SumRows folds sum(vals[p]) over the positions of sel without
// materializing the gathered values. All positions must be in range.
//
//holistic:noalloc
func SumRows(vals []int64, sel PosList) int64 {
	var s int64
	for _, p := range sel {
		s += vals[p]
	}
	return s
}

// ParallelSumRows is SumRows with the gather-fold split across workers.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelSumRows(vals []int64, sel PosList, workers int) int64 {
	if workers < 2 || len(sel) < minParallelSel {
		return SumRows(vals, sel)
	}
	sums := make([]int64, workers)
	var wg sync.WaitGroup
	chunk := (len(sel) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		if start >= len(sel) {
			break
		}
		end := start + chunk
		if end > len(sel) {
			end = len(sel)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			sums[w] = SumRows(vals, sel[start:end])
		}(w, start, end)
	}
	wg.Wait()
	var total int64
	for _, s := range sums {
		total += s
	}
	return total
}

// MinMaxRows folds min/max of vals over the positions of sel and
// reports how many positions were visited; mn/mx are meaningful only
// when n > 0. All positions must be in range.
//
//holistic:noalloc
func MinMaxRows(vals []int64, sel PosList) (mn, mx int64, n int) {
	for _, p := range sel {
		v := vals[p]
		if n == 0 || v < mn {
			mn = v
		}
		if n == 0 || v > mx {
			mx = v
		}
		n++
	}
	return mn, mx, n
}

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

// Plain reports whether the view is just the base array (no overlay), so
// callers can take the tight-kernel fast path.
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

// appendFilterRows is the overlay-aware probe loop shared by the
// allocating and in-place filter forms; dst may alias sel (the output
// never outruns the input).
//
//holistic:noalloc
func (w View) appendFilterRows(dst, sel PosList, lo, hi int64) PosList {
	for _, p := range sel {
		if v, ok := w.At(p); ok && v >= lo && v < hi {
			dst = append(dst, p)
		}
	}
	return dst
}

// FilterRows keeps the positions of sel whose current value lies in
// [lo, hi), preserving order; rows without a value are dropped. Plain
// views use the parallel probe kernel.
func (w View) FilterRows(sel PosList, lo, hi int64, workers int) PosList {
	if w.Plain() {
		return ParallelFilterRows(w.Base, sel, lo, hi, workers)
	}
	return w.appendFilterRows(make(PosList, 0, len(sel)), sel, lo, hi)
}

// FilterRowsInPlace is FilterRows writing the survivors back into
// sel's storage, which the caller must own: the allocation-free refine
// kernel of the conjunctive hot path.
//
//holistic:noalloc
func (w View) FilterRowsInPlace(sel PosList, lo, hi int64, workers int) PosList {
	if w.Plain() {
		return ParallelFilterRowsInPlace(w.Base, sel, lo, hi, workers)
	}
	return w.appendFilterRows(sel[:0], sel, lo, hi)
}

// allPresent reports whether a plain view covers every position of sel
// (the common case where the presence filter is the identity).
//
//holistic:noalloc
func (w View) allPresent(sel PosList) bool {
	if !w.Plain() {
		return false
	}
	n := Pos(len(w.Base))
	for _, p := range sel {
		if p >= n {
			return false
		}
	}
	return true
}

// appendPresentRows is the overlay-aware presence loop shared by the
// allocating and in-place forms; dst may alias sel.
//
//holistic:noalloc
func (w View) appendPresentRows(dst, sel PosList) PosList {
	for _, p := range sel {
		if _, ok := w.At(p); ok {
			dst = append(dst, p)
		}
	}
	return dst
}

// PresentRows keeps the positions of sel that have a value in this
// attribute — the presence filter applied to aggregate/projection
// attributes that were not among the predicates.
func (w View) PresentRows(sel PosList) PosList {
	if w.allPresent(sel) {
		return sel
	}
	return w.appendPresentRows(make(PosList, 0, len(sel)), sel)
}

// PresentRowsInPlace is PresentRows writing the survivors back into
// sel's storage, which the caller must own.
//
//holistic:noalloc
func (w View) PresentRowsInPlace(sel PosList) PosList {
	if w.allPresent(sel) {
		return sel
	}
	return w.appendPresentRows(sel[:0], sel)
}

// FetchRows gathers the current values at the given positions; every
// position must have a value (run PresentRows first).
func (w View) FetchRows(sel PosList, workers int) []int64 {
	if w.Plain() {
		return ParallelFetchRows(w.Base, sel, workers)
	}
	out := make([]int64, len(sel))
	for i, p := range sel {
		v, ok := w.At(p)
		if !ok {
			panic(fmt.Sprintf("column: FetchRows at row %d without a value", p))
		}
		out[i] = v
	}
	return out
}

// SumRows folds sum of the current values at the given positions
// without materializing them; every position must have a value (run
// PresentRows first).
//
//holistic:noalloc
func (w View) SumRows(sel PosList, workers int) int64 {
	if w.Plain() {
		return ParallelSumRows(w.Base, sel, workers)
	}
	var s int64
	for _, p := range sel {
		v, ok := w.At(p)
		if !ok {
			panic(fmt.Sprintf("column: SumRows at row %d without a value", p))
		}
		s += v
	}
	return s
}

// MinMaxRows folds min/max of the current values at the given positions
// without materializing them; every position must have a value (run
// PresentRows first).
//
//holistic:noalloc
func (w View) MinMaxRows(sel PosList) (mn, mx int64, n int) {
	if w.Plain() {
		return MinMaxRows(w.Base, sel)
	}
	for _, p := range sel {
		v, ok := w.At(p)
		if !ok {
			panic(fmt.Sprintf("column: MinMaxRows at row %d without a value", p))
		}
		if n == 0 || v < mn {
			mn = v
		}
		if n == 0 || v > mx {
			mx = v
		}
		n++
	}
	return mn, mx, n
}

// GatherRows appends the current values at the given positions to dst —
// the allocation-free gather the grouped-aggregation kernels run per
// decoded selection chunk; every position must have a value (run
// PresentRows first).
//
//holistic:noalloc
func (w View) GatherRows(dst []int64, sel PosList) []int64 {
	if w.Plain() {
		base := w.Base
		for _, p := range sel {
			dst = append(dst, base[p])
		}
		return dst
	}
	for _, p := range sel {
		v, ok := w.At(p)
		if !ok {
			panic(fmt.Sprintf("column: GatherRows at row %d without a value", p))
		}
		dst = append(dst, v)
	}
	return dst
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
	widen := func(v int64) {
		if hi < lo {
			lo, hi = v, v
			return
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for _, v := range w.Tail {
		widen(v)
	}
	for _, v := range w.Updated {
		widen(v)
	}
	return lo, hi
}

// Bounds returns the minimum and maximum value of vals; an empty slice
// reports the inverted pair (0, -1) so range overlap math naturally
// yields zero.
//
//holistic:noalloc
func Bounds(vals []int64) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, -1
	}
	lo, hi = vals[0], vals[0]
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

// UniformEstimate is the shared uniform-domain selectivity guess used
// by the conjunctive query planners:
//
//	rows * |[lo,hi) ∩ [dLo,dHi]| / |[dLo,dHi]|
//
// Pass rows = 1 for a bare selectivity fraction.
//
//holistic:noalloc
func UniformEstimate(rows float64, dLo, dHi, lo, hi int64) float64 {
	if hi <= lo || dHi < dLo {
		return 0
	}
	span := float64(dHi) - float64(dLo) + 1
	cLo, cHi := float64(lo), float64(hi)
	if cLo < float64(dLo) {
		cLo = float64(dLo)
	}
	if cHi > float64(dHi)+1 {
		cHi = float64(dHi) + 1
	}
	if cHi <= cLo {
		return 0
	}
	return rows * (cHi - cLo) / span
}

// Dict is an order-preserving string dictionary. Low-cardinality string
// attributes (TPC-H return flags, ship modes, ...) are stored as int64
// codes in a Column; Dict translates between the two representations.
//
// Codes are assigned in first-seen order, so range predicates over codes
// are only meaningful per-value (equality / IN lists), which is all the
// workloads here need.
type Dict struct {
	mu      sync.RWMutex
	codes   map[string]int64
	strings []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int64)}
}

// Encode returns the code for s, assigning a fresh one if unseen.
func (d *Dict) Encode(s string) int64 {
	d.mu.RLock()
	code, ok := d.codes[s]
	d.mu.RUnlock()
	if ok {
		return code
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if code, ok := d.codes[s]; ok {
		return code
	}
	code = int64(len(d.strings))
	d.codes[s] = code
	d.strings = append(d.strings, s)
	return code
}

// Lookup returns the code for s without assigning; ok reports presence.
func (d *Dict) Lookup(s string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	code, ok := d.codes[s]
	return code, ok
}

// Decode translates a code back to its string.
func (d *Dict) Decode(code int64) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || code >= int64(len(d.strings)) {
		return fmt.Sprintf("<bad code %d>", code)
	}
	return d.strings[code]
}

// Card returns the number of distinct strings in the dictionary.
func (d *Dict) Card() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strings)
}

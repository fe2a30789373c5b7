// Package groupby is the grouped-aggregation subsystem: fused
// multi-aggregate plans (COUNT/SUM/MIN/MAX computed in one pass) over
// the selection vectors the conjunctive query runner produces, with
// three physical grouping strategies picked per query from the key
// attributes' domain statistics — the holistic processing model of
// MorphStore (arXiv:2004.09350) applied to this column-store:
//
//   - StrategyDense: the (possibly composite) group key is bit-packed
//     into an array index and every aggregate accumulates into dense,
//     pooled arrays — no hashing, no comparisons. Chosen when the packed
//     key domain is small (Spec.DenseSlots, default 2^16 slots) and the
//     selection is not tiny relative to it. Groups emit in ascending
//     key order by construction (a slot scan), and the whole path runs
//     through pooled scratch: zero steady-state allocations.
//
//   - StrategyHash: open-addressing (linear-probing) accumulators keyed
//     by the packed key when the composite fits 64 bits, by the raw
//     tuple otherwise. The general fallback for large key domains;
//     groups are sorted at the emit boundary.
//
//   - StrategySort: the key attribute's index streams the column in
//     key-clustered order (Executor.WalkKeyOrder: sorted runs, or
//     cracker pieces in key order) and each cluster is aggregated with
//     a small local accumulator — no global hash table at all, and
//     groups emit in key order for free. This is the holistic payoff:
//     background refinement keeps shrinking the clusters, converting
//     hash grouping into index-clustered grouping over time.
//
// Dense and hash grouping run partition-parallel: the selection vector
// is split across workers, each accumulates into its own pooled state,
// and the partials merge at the end.
//
// All inputs flow through update-aware column.Views, so every executor
// mode — including the cracking modes with pending inserts, deletes and
// updates — groups over the attribute's current logical state. Rows
// must already be presence-filtered for every referenced attribute (the
// query runner's selection pipeline guarantees it), mirroring the SQL
// NULL semantics of the rest of the query subsystem.
package groupby

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"holistic/internal/column"
)

// Kind enumerates the aggregate functions of a fused plan.
type Kind int

const (
	// KindCount is count(*) over the group's rows.
	KindCount Kind = iota
	// KindSum is sum(attr).
	KindSum
	// KindMin is min(attr).
	KindMin
	// KindMax is max(attr).
	KindMax
)

// Agg is one aggregate of a fused plan.
type Agg struct {
	Kind Kind
	// Attr names the aggregated attribute; empty for KindCount.
	Attr string
}

// Count returns the count(*) aggregate.
func Count() Agg { return Agg{Kind: KindCount} }

// Sum returns the sum(attr) aggregate.
func Sum(attr string) Agg { return Agg{Kind: KindSum, Attr: attr} }

// Min returns the min(attr) aggregate.
func Min(attr string) Agg { return Agg{Kind: KindMin, Attr: attr} }

// Max returns the max(attr) aggregate.
func Max(attr string) Agg { return Agg{Kind: KindMax, Attr: attr} }

// String renders the aggregate as SQL does.
func (a Agg) String() string {
	switch a.Kind {
	case KindCount:
		return "count(*)"
	case KindSum:
		return "sum(" + a.Attr + ")"
	case KindMin:
		return "min(" + a.Attr + ")"
	case KindMax:
		return "max(" + a.Attr + ")"
	default:
		return fmt.Sprintf("agg(%d)", int(a.Kind))
	}
}

// Strategy enumerates the physical grouping strategies.
type Strategy int

const (
	// StrategyAuto picks per query from the key domain statistics.
	StrategyAuto Strategy = iota
	// StrategyDense forces array-indexed accumulators.
	StrategyDense
	// StrategyHash forces open-addressing hash accumulators.
	StrategyHash
	// StrategySort is index-clustered grouping (GroupClusters); reported
	// in Result.Strategy, and forceable at the query-runner level where
	// the index access path lives.
	StrategySort
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyDense:
		return "dense"
	case StrategyHash:
		return "hash"
	case StrategySort:
		return "sort"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultDenseSlots bounds the packed key domain of StrategyDense: the
// dense accumulator arrays hold one slot per representable composite
// key, so 2^16 slots times a handful of aggregates stays comfortably
// inside the L2 cache while covering every low-cardinality grouping
// (TPC-H Q1 needs 8).
const DefaultDenseSlots = 1 << 16

// DefaultClusterSlots bounds the local accumulator of one key cluster
// under StrategySort: a cluster whose observed value span fits is
// aggregated with a dense array (offset by the cluster minimum), larger
// clusters — an unrefined index — fall back to a per-cluster hash.
const DefaultClusterSlots = 1 << 16

// denseMinSlots is the packed domain size below which StrategyAuto
// always picks dense regardless of the selection size: clearing and
// scanning a few thousand slots is cheaper than any hash table.
const denseMinSlots = 1 << 12

// denseFill is the required selection-to-slots ratio above
// denseMinSlots: dense pays O(slots) clearing and emission, so a tiny
// selection over a large (but packable) domain groups faster through
// the hash table.
const denseFill = 8

// chunkSize is the number of selected positions decoded, gathered and
// accumulated at a time: small enough for the chunk buffers to stay
// cache-resident, large enough to amortize the per-chunk dispatch.
const chunkSize = 4096

// minParallel is the selection size below which grouping stays
// sequential; positional gathers are a few nanoseconds each.
const minParallel = 1 << 15

// Key is one group-by attribute: its update-aware view and the
// inclusive bounds of its value domain (base column bounds extended by
// the view's overlay), which drive the composite bit-packing rule.
type Key struct {
	View   column.View
	Lo, Hi int64
}

// Spec describes one fused grouped-aggregation execution.
type Spec struct {
	// Keys are the group-by attributes, most significant first: results
	// order lexicographically by this sequence.
	Keys []Key
	// Aggs are the fused aggregates; AggViews is aligned with it (the
	// zero View for KindCount).
	Aggs     []Agg
	AggViews []column.View
	// Threads bounds the partition parallelism of dense/hash grouping.
	Threads int
	// DenseSlots overrides DefaultDenseSlots (0 keeps the default);
	// ClusterSlots likewise for the sort path's per-cluster bound.
	DenseSlots   int
	ClusterSlots int
	// Force pins the strategy of GroupRows/GroupBitmap to Dense or Hash;
	// StrategyAuto (the zero value) applies the crossover rule.
	Force Strategy
}

//holistic:noalloc
func (s *Spec) denseSlots() int {
	if s.DenseSlots > 0 {
		return s.DenseSlots
	}
	return DefaultDenseSlots
}

//holistic:noalloc
func (s *Spec) clusterSlots() int {
	if s.ClusterSlots > 0 {
		return s.ClusterSlots
	}
	return DefaultClusterSlots
}

//holistic:alloc-ok error paths format diagnostics
func (s *Spec) validate() error {
	if len(s.Keys) == 0 {
		return fmt.Errorf("groupby: at least one group-by attribute is required")
	}
	if len(s.Aggs) == 0 {
		return fmt.Errorf("groupby: at least one aggregate is required")
	}
	if len(s.AggViews) != len(s.Aggs) {
		return fmt.Errorf("groupby: %d aggregate views for %d aggregates", len(s.AggViews), len(s.Aggs))
	}
	return nil
}

// Result is one ordered grouped-aggregation result table: group g's
// composite key is (Keys[0][g], ..., Keys[k-1][g]) and its aggregates
// are Aggs[0][g], ..., ascending lexicographically by key. The slices
// are reused across executions when the caller passes the same Result
// back in, so the steady-state dense path allocates nothing.
type Result struct {
	Keys [][]int64
	Aggs [][]int64
	// Strategy reports the strategy that actually executed.
	Strategy Strategy
}

// Len returns the number of groups.
func (r *Result) Len() int {
	if len(r.Keys) == 0 {
		return 0
	}
	return len(r.Keys[0])
}

// reset prepares the result for nk key and na aggregate columns,
// truncating reused storage.
func (r *Result) reset(nk, na int) {
	r.Keys = resizeCols(r.Keys, nk)
	r.Aggs = resizeCols(r.Aggs, na)
	r.Strategy = StrategyAuto
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func resizeCols(s [][]int64, n int) [][]int64 {
	for len(s) < n {
		s = append(s, nil)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// --- composite key packing ---

// packing is the composite-key bit-packing rule: key i occupies
// bits[i] = ceil(log2(span_i)) bits, keys packed most significant
// first, so the packed integer orders exactly like the key tuple.
type packing struct {
	los    []int64
	spans  []uint64 // hi-lo+1 per key
	shifts []uint   // left shift per key
	bits   int      // total bits
	slots  int      // 1<<bits when bits small enough to index, else 0
}

const maxDenseBits = 30 // 1<<30 slots would never pass the slot bound anyway

//holistic:alloc-ok error paths format diagnostics
func makePacking(pk *packing, keys []Key) error {
	pk.los = pk.los[:0]
	pk.spans = pk.spans[:0]
	pk.shifts = pk.shifts[:0]
	pk.bits = 0
	for _, k := range keys {
		if k.Hi < k.Lo {
			// Empty domain: legal only when the selection is empty, which
			// the callers short-circuit before packing.
			return fmt.Errorf("groupby: inverted key domain [%d, %d]", k.Lo, k.Hi)
		}
		span := uint64(k.Hi-k.Lo) + 1 // two's complement: exact even for huge spans
		pk.los = append(pk.los, k.Lo)
		pk.spans = append(pk.spans, span)
		b := bitsLen(span - 1)
		pk.shifts = append(pk.shifts, 0)
		pk.bits += b
	}
	// Assign shifts most significant first.
	shift := uint(0)
	for i := len(keys) - 1; i >= 0; i-- {
		pk.shifts[i] = shift
		if pk.bits <= 64 {
			shift += uint(bitsLen(pk.spans[i] - 1))
		}
	}
	pk.slots = 0
	if pk.bits <= maxDenseBits {
		pk.slots = 1 << uint(pk.bits)
	}
	return nil
}

// packable reports whether the composite key fits one uint64 — the hash
// table's fast path.
func (pk *packing) packable() bool { return pk.bits <= 64 }

//holistic:noalloc
func bitsLen(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

// unpack recovers key i's attribute value from a packed composite.
//
//holistic:noalloc
func (pk *packing) unpack(packed uint64, i int) int64 {
	v := packed >> pk.shifts[i]
	if b := bitsLen(pk.spans[i] - 1); b < 64 {
		v &= (1 << uint(b)) - 1
	}
	return pk.los[i] + int64(v)
}

// --- entry points ---

// DenseEligible reports whether a composite key over the given domains
// packs into a dense accumulator of at most denseSlots slots (0 keeps
// DefaultDenseSlots) — the planner-side probe of the dense/hash
// crossover, answerable from domain statistics alone.
//
//holistic:noalloc
func DenseEligible(keys []Key, denseSlots int) bool {
	if denseSlots <= 0 {
		denseSlots = DefaultDenseSlots
	}
	bits := 0
	for _, k := range keys {
		if k.Hi < k.Lo {
			return false
		}
		bits += bitsLen(uint64(k.Hi - k.Lo)) // = bitsLen(span-1)
		if bits > maxDenseBits {
			return false
		}
	}
	return 1<<uint(bits) <= denseSlots
}

// GroupRows executes the fused plan over a position-list selection
// vector. Positions must be presence-filtered for every referenced
// attribute. The result is written into res (reusing its storage).
//
//holistic:noalloc
func GroupRows(spec *Spec, sel column.PosList, res *Result) error {
	return group(spec, sel, nil, res)
}

// GroupBitmap executes the fused plan over a bitmap selection vector.
//
//holistic:noalloc
func GroupBitmap(spec *Spec, bm *column.Bitmap, res *Result) error {
	return group(spec, nil, bm, res)
}

//holistic:noalloc
func group(spec *Spec, sel column.PosList, bm *column.Bitmap, res *Result) error {
	if err := spec.validate(); err != nil {
		return err
	}
	res.reset(len(spec.Keys), len(spec.Aggs))
	n := len(sel)
	if bm != nil {
		n = bm.Count()
	}
	if n == 0 {
		res.Strategy = spec.Force
		if res.Strategy == StrategyAuto {
			res.Strategy = StrategyDense
		}
		return nil
	}
	st := getRunState()
	defer putRunState(st)
	if err := makePacking(&st.pk, spec.Keys); err != nil {
		return err
	}
	dense := chooseDense(spec, &st.pk, n)
	if dense {
		ok, err := groupDense(spec, st, sel, bm, n, res)
		if err != nil {
			return err
		}
		if ok {
			res.Strategy = StrategyDense
			return nil
		}
		// A key value escaped the declared domain (only possible when the
		// caller's bounds were stale); the hash path has no such
		// precondition.
	}
	if err := groupHash(spec, st, sel, bm, n, res); err != nil {
		return err
	}
	res.Strategy = StrategyHash
	return nil
}

// chooseDense applies the dense/hash crossover: the packed domain must
// be indexable and small, and — above denseMinSlots — the selection must
// fill it densely enough to amortize the O(slots) clear and emit scan.
//
//holistic:noalloc
func chooseDense(spec *Spec, pk *packing, n int) bool {
	switch spec.Force {
	case StrategyDense:
		return pk.slots > 0 && pk.slots <= spec.denseSlots()
	case StrategyHash:
		return false
	}
	if pk.slots == 0 || pk.slots > spec.denseSlots() {
		return false
	}
	return pk.slots <= denseMinSlots || n*denseFill >= pk.slots
}

// --- pooled run state ---

// runState is the pooled per-execution scratch: chunk buffers, packing
// arrays and the dense/hash accumulators, recycled so steady-state
// grouped queries allocate nothing.
type runState struct {
	pk       packing
	posbuf   column.PosList
	slotbuf  []int32
	keybuf   []int64
	valbuf   []int64
	packbuf  []uint64
	tuplebuf []int64
	dense    *denseState
	hash     *hashState
	cluster  *clusterState
	workers  []*runState // partition-parallel partials
}

var runStatePool = sync.Pool{New: func() any { return new(runState) }}

//holistic:alloc-ok pool warm-up allocates the recycled object
func getRunState() *runState { return runStatePool.Get().(*runState) }

//holistic:noalloc
func putRunState(st *runState) {
	for i := range st.workers {
		putRunState(st.workers[i])
		st.workers[i] = nil
	}
	st.workers = st.workers[:0]
	runStatePool.Put(st)
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *runState) buffers() {
	if cap(st.posbuf) < chunkSize {
		st.posbuf = make(column.PosList, chunkSize)
	}
	if cap(st.slotbuf) < chunkSize {
		st.slotbuf = make([]int32, chunkSize)
	}
	if cap(st.keybuf) < chunkSize {
		st.keybuf = make([]int64, 0, chunkSize)
	}
	if cap(st.valbuf) < chunkSize {
		st.valbuf = make([]int64, 0, chunkSize)
	}
}

// --- dense strategy ---

// denseState is the array-indexed accumulator set: one slot per packed
// composite key. counts doubles as the occupancy gate; min/max arrays
// initialize to their identity so accumulation needs no branches on
// first touch.
type denseState struct {
	slots  int
	counts []int64
	accs   [][]int64 // per aggregate; nil for KindCount
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *runState) denseFor(spec *Spec, slots int) *denseState {
	d := st.dense
	if d == nil {
		d = &denseState{}
		st.dense = d
	}
	d.slots = slots
	d.counts = resizeZero(d.counts, slots)
	for len(d.accs) < len(spec.Aggs) {
		d.accs = append(d.accs, nil)
	}
	d.accs = d.accs[:len(spec.Aggs)]
	for a, agg := range spec.Aggs {
		switch agg.Kind {
		case KindCount:
			d.accs[a] = d.accs[a][:0]
		case KindSum:
			d.accs[a] = resizeZero(d.accs[a], slots)
		case KindMin:
			d.accs[a] = resizeFill(d.accs[a], slots, math.MaxInt64)
		case KindMax:
			d.accs[a] = resizeFill(d.accs[a], slots, math.MinInt64)
		}
	}
	return d
}

// errf builds a formatted error; hot entry points route their cold
// error paths through it so the allocation sits behind one reviewed
// boundary.
//
//holistic:alloc-ok error paths format their diagnostics
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func resizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func resizeFill(s []int64, n int, v int64) []int64 {
	if cap(s) < n {
		s = make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// groupDense runs the dense strategy; ok is false when a key value fell
// outside its declared domain (stale bounds), in which case nothing has
// been emitted and the caller reruns through the hash path.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func groupDense(spec *Spec, st *runState, sel column.PosList, bm *column.Bitmap, n int, res *Result) (bool, error) {
	workers := partitions(spec.Threads, n)
	if workers <= 1 {
		st.buffers()
		d := st.denseFor(spec, st.pk.slots)
		if !accumulateDense(spec, st, &st.pk, d, sel, bm, 0, partEnd(sel, bm)) {
			return false, nil
		}
		emitDense(spec, &st.pk, d, res)
		return true, nil
	}
	parts := splitParts(sel, bm, workers)
	states := st.workerStates(len(parts))
	ok := make([]bool, len(parts))
	var wg sync.WaitGroup
	for w, part := range parts {
		wg.Add(1)
		go func(w int, lo, hi int) {
			defer wg.Done()
			ws := states[w]
			ws.buffers()
			d := ws.denseFor(spec, st.pk.slots)
			ok[w] = accumulateDense(spec, ws, &st.pk, d, sel, bm, lo, hi)
		}(w, part[0], part[1])
	}
	wg.Wait()
	for _, o := range ok {
		if !o {
			return false, nil
		}
	}
	merged := states[0].dense
	for _, ws := range states[1:] {
		mergeDense(spec, merged, ws.dense)
	}
	emitDense(spec, &st.pk, merged, res)
	return true, nil
}

// workerStates borrows one pooled runState per partition; they are
// released with the parent.
//
//holistic:alloc-ok pool warm-up for the per-worker states
func (st *runState) workerStates(n int) []*runState {
	for len(st.workers) < n {
		st.workers = append(st.workers, getRunState())
	}
	return st.workers[:n]
}

// partitions bounds the partition parallelism by the selection size.
//
//holistic:noalloc
func partitions(threads, n int) int {
	if threads < 2 || n < minParallel {
		return 1
	}
	return threads
}

// partEnd returns the iteration bound of the whole selection: positions
// for a list, words for a bitmap.
//
//holistic:noalloc
func partEnd(sel column.PosList, bm *column.Bitmap) int {
	if bm != nil {
		return bm.Words()
	}
	return len(sel)
}

// splitParts cuts the selection into contiguous per-worker spans —
// index ranges of the position list, word ranges of the bitmap.
//
//holistic:alloc-ok sizes the per-worker partition table
func splitParts(sel column.PosList, bm *column.Bitmap, workers int) [][2]int {
	total := partEnd(sel, bm)
	chunk := (total + workers - 1) / workers
	var parts [][2]int
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		parts = append(parts, [2]int{lo, hi})
	}
	return parts
}

// nextChunk decodes the next chunk of selected positions from the
// partition [*cursor, end): a slice of the position list, or set bits of
// the next word range. It returns a borrowed slice valid until the next
// call.
//
//holistic:noalloc
func nextChunk(st *runState, sel column.PosList, bm *column.Bitmap, cursor *int, end int) column.PosList {
	if bm == nil {
		lo := *cursor
		if lo >= end {
			return nil
		}
		hi := lo + chunkSize
		if hi > end {
			hi = end
		}
		*cursor = hi
		return sel[lo:hi]
	}
	buf := st.posbuf[:0]
	for *cursor < end && len(buf) < chunkSize-64 {
		w := *cursor
		step := (chunkSize - len(buf)) / 64
		if step < 1 {
			step = 1
		}
		if w+step > end {
			step = end - w
		}
		buf = bm.AppendPositionsWords(buf, w, w+step)
		*cursor = w + step
	}
	st.posbuf = buf[:cap(buf)]
	return buf
}

// gatherKeys packs the chunk's composite keys into slotbuf; false when a
// key value escapes its declared domain. pk is passed explicitly — it
// belongs to the query's root state, never to pooled worker states
// (copying its slice headers into them would alias the backing arrays
// across pooled states).
//
//holistic:noalloc
func gatherKeys(spec *Spec, st *runState, pk *packing, chunk column.PosList) bool {
	slots := st.slotbuf[:len(chunk)]
	for i, k := range spec.Keys {
		vals := st.keybuf[:0]
		vals = k.View.GatherRows(vals, chunk)
		st.keybuf = vals
		lo, span, shift := pk.los[i], pk.spans[i], pk.shifts[i]
		if i == 0 {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				slots[j] = int32(d << shift)
			}
		} else {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				slots[j] |= int32(d << shift)
			}
		}
	}
	return true
}

// accumulateDense drives the decode → gather → fuse pipeline of one
// partition into d.
//
//holistic:noalloc
func accumulateDense(spec *Spec, st *runState, pk *packing, d *denseState, sel column.PosList, bm *column.Bitmap, lo, hi int) bool {
	cursor := lo
	for {
		chunk := nextChunk(st, sel, bm, &cursor, hi)
		if len(chunk) == 0 {
			return true
		}
		if !gatherKeys(spec, st, pk, chunk) {
			return false
		}
		slots := st.slotbuf[:len(chunk)]
		for _, s := range slots {
			d.counts[s]++
		}
		for a, agg := range spec.Aggs {
			if agg.Kind == KindCount {
				continue
			}
			vals := spec.AggViews[a].GatherRows(st.valbuf[:0], chunk)
			st.valbuf = vals
			acc := d.accs[a]
			switch agg.Kind {
			case KindSum:
				for j, v := range vals {
					acc[slots[j]] += v
				}
			case KindMin:
				for j, v := range vals {
					if v < acc[slots[j]] {
						acc[slots[j]] = v
					}
				}
			case KindMax:
				for j, v := range vals {
					if v > acc[slots[j]] {
						acc[slots[j]] = v
					}
				}
			}
		}
	}
}

// mergeDense folds worker partials into dst slot by slot.
//
//holistic:noalloc
func mergeDense(spec *Spec, dst, src *denseState) {
	for s, c := range src.counts {
		if c == 0 {
			continue
		}
		dst.counts[s] += c
		for a, agg := range spec.Aggs {
			switch agg.Kind {
			case KindSum:
				dst.accs[a][s] += src.accs[a][s]
			case KindMin:
				if src.accs[a][s] < dst.accs[a][s] {
					dst.accs[a][s] = src.accs[a][s]
				}
			case KindMax:
				if src.accs[a][s] > dst.accs[a][s] {
					dst.accs[a][s] = src.accs[a][s]
				}
			}
		}
	}
}

// emitDense scans the slots in ascending order — which is ascending
// lexicographic key order, by the packing rule — and appends the
// occupied ones to res.
//
//holistic:noalloc
func emitDense(spec *Spec, pk *packing, d *denseState, res *Result) {
	for s, c := range d.counts {
		if c == 0 {
			continue
		}
		for i := range spec.Keys {
			res.Keys[i] = append(res.Keys[i], pk.unpack(uint64(s), i))
		}
		for a, agg := range spec.Aggs {
			if agg.Kind == KindCount {
				res.Aggs[a] = append(res.Aggs[a], c)
			} else {
				res.Aggs[a] = append(res.Aggs[a], d.accs[a][s])
			}
		}
	}
}

// --- hash strategy ---

// hashState is the open-addressing accumulator set: a linear-probing
// table of 1-based group indices over column-major group storage. When
// the composite key packs into 64 bits the probe compares one integer;
// otherwise — or once a key value escapes its declared domain, making
// packed comparisons ambiguous — the state switches to tuple keying,
// which compares the raw key values and depends on no domain knowledge.
type hashState struct {
	table  []int32
	mask   uint64
	tuple  bool // keyed by raw tuple instead of packed composite
	packed []uint64
	keys   [][]int64 // raw key values per attribute, per group
	counts []int64
	accs   [][]int64
	n      int
	tupbuf []int64 // merge-side tuple scratch, retained across runs
	order  []int32 // emit ordering scratch, retained across runs
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *runState) hashFor(spec *Spec) *hashState {
	h := st.hash
	if h == nil {
		h = &hashState{}
		st.hash = h
	}
	h.reset(spec)
	return h
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (h *hashState) reset(spec *Spec) {
	if len(h.table) < 64 {
		h.table = make([]int32, 64)
	}
	clear(h.table)
	h.mask = uint64(len(h.table) - 1)
	h.packed = h.packed[:0]
	h.keys = resizeCols(h.keys, len(spec.Keys)) // truncates retained columns in place
	h.counts = h.counts[:0]
	for len(h.accs) < len(spec.Aggs) {
		h.accs = append(h.accs, nil)
	}
	h.accs = h.accs[:len(spec.Aggs)]
	for a := range h.accs {
		h.accs[a] = h.accs[a][:0]
	}
	h.n = 0
	h.tuple = false
}

// toTupleMode rekeys the table by raw tuple: existing groups keep their
// indices (the stored raw keys are exact), only the probe table is
// rebuilt. A no-op when already tuple-keyed.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (h *hashState) toTupleMode() {
	if h.tuple {
		return
	}
	h.tuple = true
	clear(h.table)
	for g := 0; g < h.n; g++ {
		i := hashTuple(h.keys, g) & h.mask
		for h.table[i] != 0 {
			i = (i + 1) & h.mask
		}
		h.table[i] = int32(g + 1)
	}
}

// splitmix64 is the avalanche finalizer of the splitmix64 generator — a
// cheap, well-mixed hash for packed keys.
//
//holistic:noalloc
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// grow doubles the probe table and reinserts every group.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (h *hashState) grow(pk *packing) {
	nt := make([]int32, len(h.table)*2)
	mask := uint64(len(nt) - 1)
	for g := 0; g < h.n; g++ {
		var hv uint64
		if h.tuple {
			hv = hashTuple(h.keys, g)
		} else {
			hv = splitmix64(h.packed[g])
		}
		i := hv & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(g + 1)
	}
	h.table = nt
	h.mask = mask
}

//holistic:noalloc
func hashTuple(keys [][]int64, g int) uint64 {
	hv := uint64(1469598103934665603)
	for _, col := range keys {
		hv = (hv ^ uint64(col[g])) * 1099511628211
	}
	return hv
}

// groupOf finds or creates the group of the packed key (packable path),
// initializing its accumulators on creation.
//
//holistic:noalloc
func (h *hashState) groupOf(spec *Spec, pk *packing, packed uint64) int32 {
	i := splitmix64(packed) & h.mask
	for {
		g := h.table[i]
		if g == 0 {
			break
		}
		if h.packed[g-1] == packed {
			return g - 1
		}
		i = (i + 1) & h.mask
	}
	g := h.newGroup(spec)
	h.packed = append(h.packed, packed)
	for k := range spec.Keys {
		h.keys[k] = append(h.keys[k], pk.unpack(packed, k))
	}
	h.table[i] = int32(g + 1)
	if uint64(h.n)*4 >= uint64(len(h.table))*3 {
		h.grow(pk)
	}
	return int32(g)
}

// groupOfTuple is groupOf for composites wider than 64 bits, keyed by
// the raw tuple in keybufs at row j.
//
//holistic:noalloc
func (h *hashState) groupOfTuple(spec *Spec, pk *packing, tuple []int64) int32 {
	hv := uint64(1469598103934665603)
	for _, v := range tuple {
		hv = (hv ^ uint64(v)) * 1099511628211
	}
	i := hv & h.mask
probe:
	for {
		g := h.table[i]
		if g == 0 {
			break
		}
		for k := range tuple {
			if h.keys[k][g-1] != tuple[k] {
				i = (i + 1) & h.mask
				continue probe
			}
		}
		return g - 1
	}
	g := h.newGroup(spec)
	for k, v := range tuple {
		h.keys[k] = append(h.keys[k], v)
	}
	h.table[i] = int32(g + 1)
	if uint64(h.n)*4 >= uint64(len(h.table))*3 {
		h.grow(pk)
	}
	return int32(g)
}

// newGroup appends a fresh group with identity-initialized accumulators.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (h *hashState) newGroup(spec *Spec) int {
	g := h.n
	h.n++
	h.counts = append(h.counts, 0)
	for a, agg := range spec.Aggs {
		switch agg.Kind {
		case KindSum:
			h.accs[a] = append(h.accs[a], 0)
		case KindMin:
			h.accs[a] = append(h.accs[a], math.MaxInt64)
		case KindMax:
			h.accs[a] = append(h.accs[a], math.MinInt64)
		}
	}
	return g
}

// accumulateHash drives one partition into h. It starts in packed mode
// when the composite fits 64 bits, and switches the state to tuple
// keying the moment a key value escapes its declared domain (stale
// bounds must never produce ambiguous packed keys).
//
//holistic:noalloc
func accumulateHash(spec *Spec, st *runState, pk *packing, h *hashState, sel column.PosList, bm *column.Bitmap, lo, hi int) {
	if !pk.packable() {
		h.toTupleMode()
	}
	cursor := lo
	for {
		chunk := nextChunk(st, sel, bm, &cursor, hi)
		if len(chunk) == 0 {
			return
		}
		slots := st.slotbuf[:len(chunk)]
		if !h.tuple {
			if packChunkKeys(spec, st, pk, chunk) {
				for j := range chunk {
					slots[j] = h.groupOf(spec, pk, st.packbuf[j])
				}
			} else {
				h.toTupleMode()
			}
		}
		if h.tuple {
			// Gather each key column, transpose to row-major tuples, probe.
			nk := len(spec.Keys)
			st.tuplebuf = grow64(st.tuplebuf, nk*len(chunk))
			tb := st.tuplebuf
			for k := range spec.Keys {
				vals := spec.Keys[k].View.GatherRows(st.keybuf[:0], chunk)
				st.keybuf = vals
				for j, v := range vals {
					tb[j*nk+k] = v
				}
			}
			for j := range chunk {
				slots[j] = h.groupOfTuple(spec, pk, tb[j*nk:(j+1)*nk])
			}
		}
		for _, g := range slots {
			h.counts[g]++
		}
		for a, agg := range spec.Aggs {
			if agg.Kind == KindCount {
				continue
			}
			vals := spec.AggViews[a].GatherRows(st.valbuf[:0], chunk)
			st.valbuf = vals
			acc := h.accs[a]
			switch agg.Kind {
			case KindSum:
				for j, v := range vals {
					acc[slots[j]] += v
				}
			case KindMin:
				for j, v := range vals {
					if v < acc[slots[j]] {
						acc[slots[j]] = v
					}
				}
			case KindMax:
				for j, v := range vals {
					if v > acc[slots[j]] {
						acc[slots[j]] = v
					}
				}
			}
		}
	}
}

// packChunkKeys packs the chunk's composite keys into st.packbuf; false
// when a key value escapes its declared domain (nothing is consumed and
// the caller switches to tuple keying).
//
//holistic:noalloc
func packChunkKeys(spec *Spec, st *runState, pk *packing, chunk column.PosList) bool {
	st.packbuf = growU64(st.packbuf, len(chunk))
	packed := st.packbuf
	for i, k := range spec.Keys {
		vals := k.View.GatherRows(st.keybuf[:0], chunk)
		st.keybuf = vals
		lo, span, shift := pk.los[i], pk.spans[i], pk.shifts[i]
		if i == 0 {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				packed[j] = d << shift
			}
		} else {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				packed[j] |= d << shift
			}
		}
	}
	st.packbuf = packed
	return true
}

// groupHash runs the hash strategy, partition-parallel with per-worker
// accumulator merge, and emits the groups in ascending key order.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func groupHash(spec *Spec, st *runState, sel column.PosList, bm *column.Bitmap, n int, res *Result) error {
	workers := partitions(spec.Threads, n)
	var h *hashState
	if workers <= 1 {
		st.buffers()
		h = st.hashFor(spec)
		accumulateHash(spec, st, &st.pk, h, sel, bm, 0, partEnd(sel, bm))
	} else {
		parts := splitParts(sel, bm, workers)
		states := st.workerStates(len(parts))
		var wg sync.WaitGroup
		for w, part := range parts {
			wg.Add(1)
			go func(w int, lo, hi int) {
				defer wg.Done()
				ws := states[w]
				ws.buffers()
				accumulateHash(spec, ws, &st.pk, ws.hashFor(spec), sel, bm, lo, hi)
			}(w, part[0], part[1])
		}
		wg.Wait()
		h = states[0].hash
		for _, ws := range states[1:] {
			mergeHash(spec, &st.pk, h, ws.hash)
		}
	}
	emitHash(spec, h, res)
	return nil
}

// mergeHash folds src's groups into dst. If either side switched to
// tuple keying, the merge goes through raw tuples (dst converting
// first); packed merges stay on the fast path.
//
//holistic:noalloc
func mergeHash(spec *Spec, pk *packing, dst, src *hashState) {
	if src.tuple {
		dst.toTupleMode()
	}
	dst.tupbuf = grow64(dst.tupbuf, len(spec.Keys))
	tuple := dst.tupbuf
	for g := 0; g < src.n; g++ {
		var dg int32
		if !dst.tuple {
			dg = dst.groupOf(spec, pk, src.packed[g])
		} else {
			for k := range tuple {
				tuple[k] = src.keys[k][g]
			}
			dg = dst.groupOfTuple(spec, pk, tuple)
		}
		dst.counts[dg] += src.counts[g]
		for a, agg := range spec.Aggs {
			switch agg.Kind {
			case KindSum:
				dst.accs[a][dg] += src.accs[a][g]
			case KindMin:
				if src.accs[a][g] < dst.accs[a][dg] {
					dst.accs[a][dg] = src.accs[a][g]
				}
			case KindMax:
				if src.accs[a][g] > dst.accs[a][dg] {
					dst.accs[a][dg] = src.accs[a][g]
				}
			}
		}
	}
}

// emitHash orders the groups ascending by key tuple and appends them to
// res. The ordering pass is the price the hash strategy pays for the
// ordered-result contract — exactly what the dense and sort strategies
// get for free.
//
//holistic:noalloc
func emitHash(spec *Spec, h *hashState, res *Result) {
	h.order = grow32(h.order, h.n)
	order := h.order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(ga, gb int32) int {
		for k := range h.keys {
			if h.keys[k][ga] != h.keys[k][gb] {
				if h.keys[k][ga] < h.keys[k][gb] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	for _, g := range order {
		for k := range h.keys {
			res.Keys[k] = append(res.Keys[k], h.keys[k][g])
		}
		for a, agg := range spec.Aggs {
			if agg.Kind == KindCount {
				res.Aggs[a] = append(res.Aggs[a], h.counts[g])
			} else {
				res.Aggs[a] = append(res.Aggs[a], h.accs[a][g])
			}
		}
	}
}

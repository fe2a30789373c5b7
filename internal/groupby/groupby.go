// Package groupby is the grouped-aggregation subsystem: fused
// multi-aggregate plans (COUNT/SUM/MIN/MAX computed in one pass) over
// one accumulation core that every entry point feeds — the holistic
// processing model of MorphStore (arXiv:2004.09350) applied to this
// column-store: the operator is written once over one intermediate
// format (a chunk of at most chunkSize position-aligned columns) and
// only the feed varies.
//
// The core (runState.fold) packs the chunk's composite keys, turns them
// into accumulator indices, and folds each distinct aggregate input
// column — its sums, minima and maxima, and the counts — in one pass.
// Two accumulator sets exist, picked per execution from the key
// attributes' domain statistics (chooseDense):
//
//   - StrategyDense: the (possibly composite) group key is bit-packed
//     into an array index and every aggregate accumulates into dense,
//     pooled arrays — no hashing, no comparisons. Chosen when the packed
//     key domain is small (DefaultDenseSlots, 2^16 slots) and the
//     input is not tiny relative to it. Groups emit in ascending key
//     order by construction (a slot scan).
//
//   - StrategyHash: open-addressing (linear-probing) accumulators keyed
//     by the packed key when the composite fits 64 bits, by the raw
//     tuple otherwise. The general fallback for large key domains;
//     groups are sorted at the emit boundary.
//
// A key value that escapes its declared domain (stale bounds) migrates
// a dense state to hash mid-stream (runState.migrate) — the only
// dense→hash conversion there is.
//
// The feeders decide only where a chunk's columns come from:
//
//	feeder                  keys                  aggregates
//	GroupRows, GroupBitmap  gathered at the       gathered at the
//	                        decoded positions     decoded positions
//	GroupBitmap, all-ones   the base arrays,      the base arrays,
//	words over plain views  in place              in place
//	GroupClusters           the index walk's      gathered at the
//	                        (value, row) pairs    cluster's selected rows
//
// GroupRows and GroupBitmap run partition-parallel: the selection is
// split across workers, each feeds its own pooled core, and the
// partials merge at the end. GroupClusters is StrategySort, the
// holistic payoff: the key attribute's index streams the column in
// key-clustered order (Executor.WalkKeyOrder: sorted runs, or cracker
// pieces in key order), every cluster runs through the core as its own
// small execution over the cluster's observed key span, and groups emit
// in key order with no global table — background refinement keeps
// shrinking the clusters, converting hash grouping into index-clustered
// grouping over time.
//
// Gathered inputs flow through update-aware column.Views, so every
// executor mode — including the cracking modes with pending inserts,
// deletes and updates — groups over the attribute's current logical
// state. Rows must already be presence-filtered for every referenced
// attribute (the query runner's selection pipeline guarantees it),
// mirroring the SQL NULL semantics of the rest of the query subsystem.
// All scratch is pooled: steady-state executions allocate nothing.
package groupby

import (
	"fmt"
	"math/bits"

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
	// StrategyAuto is a Result no execution has reported into yet.
	StrategyAuto Strategy = iota
	// StrategyDense is array-indexed accumulators.
	StrategyDense
	// StrategyHash is open-addressing hash accumulators.
	StrategyHash
	// StrategySort is index-clustered grouping (GroupClusters).
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

// DefaultDenseSlots bounds every value-indexed accumulator: the packed
// key domain of StrategyDense, the observed span of one key cluster
// under StrategySort and of one merge-join cluster pair (internal/join).
// The arrays hold one slot per representable key, so 2^16 slots times a
// handful of aggregates stays comfortably inside the L2 cache while
// covering every low-cardinality grouping (TPC-H Q1 needs 8); a wider
// domain or cluster — an unrefined index — hashes.
const DefaultDenseSlots = 1 << 16

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
	// zero View for KindCount). Aggregates naming the same Attr must
	// have the same view: one gather and one pass serve them all.
	Aggs     []Agg
	AggViews []column.View
	// Threads bounds the partition parallelism of dense/hash grouping.
	Threads int
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
// Key.width bits, keys packed most significant first, so the packed
// integer orders exactly like the key tuple.
type packing struct {
	los    []int64
	spans  []uint64 // hi-lo+1 per key
	shifts []uint   // left shift per key
	bits   int      // total bits
	slots  int      // 1<<bits when bits small enough to index, else 0
}

const maxDenseBits = 30 // 1<<30 slots would never pass the slot bound anyway

// width is the one bit-width rule the planner probe, the packing and
// the strategy choice share: a key occupies as many bits as its largest
// offset Hi-Lo needs (two's complement keeps the difference exact even
// for huge spans). The domain must not be inverted.
//
//holistic:noalloc
func (k Key) width() int { return bits.Len64(uint64(k.Hi - k.Lo)) }

//holistic:noalloc
func makePacking(pk *packing, keys []Key) error {
	pk.los = pk.los[:0]
	pk.spans = pk.spans[:0]
	pk.shifts = pk.shifts[:0]
	pk.bits = 0
	for _, k := range keys {
		if k.Hi < k.Lo {
			// Empty domain: legal only when the selection is empty, which
			// the callers short-circuit before packing.
			return errf("groupby: inverted key domain [%d, %d]", k.Lo, k.Hi)
		}
		pk.los = append(pk.los, k.Lo)
		pk.spans = append(pk.spans, uint64(k.Hi-k.Lo)+1)
		pk.shifts = append(pk.shifts, 0)
		pk.bits += k.width()
	}
	// Shifts, most significant key first; a composite wider than 64 bits
	// is never packed, so its shifts stay unused.
	shift := uint(0)
	for i := len(keys) - 1; i >= 0 && pk.bits <= 64; i-- {
		pk.shifts[i] = shift
		shift += uint(keys[i].width())
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

// unpack recovers key i's attribute value from a packed composite.
//
//holistic:noalloc
func (pk *packing) unpack(packed uint64, i int) int64 {
	v := packed >> pk.shifts[i]
	if b := bits.Len64(pk.spans[i] - 1); b < 64 {
		v &= (1 << uint(b)) - 1
	}
	return pk.los[i] + int64(v)
}

// chooseDense applies the dense/hash crossover to n input rows: the
// packed domain must be indexable and small, and — above denseMinSlots —
// the input must fill it densely enough to amortize the O(slots) clear
// and emit scan.
//
//holistic:noalloc
func chooseDense(pk *packing, n int) bool {
	if pk.slots == 0 || pk.slots > DefaultDenseSlots {
		return false
	}
	return pk.slots <= denseMinSlots || n*denseFill >= pk.slots
}

// --- entry points ---

// DenseEligible reports whether a composite key over the given domains
// packs into a dense accumulator of at most DefaultDenseSlots slots —
// the planner-side probe of the dense/hash crossover, answerable from
// domain statistics alone.
//
//holistic:noalloc
func DenseEligible(keys []Key) bool {
	width := 0
	for _, k := range keys {
		if k.Hi < k.Lo {
			return false
		}
		if width += k.width(); width > maxDenseBits {
			return false
		}
	}
	return 1<<uint(width) <= DefaultDenseSlots
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
		res.Strategy = StrategyDense
		return nil
	}
	st := getRunState()
	defer putRunState(st)
	if err := makePacking(&st.pk, spec.Keys); err != nil {
		return err
	}
	root := feedSelection(spec, st, sel, bm, n)
	res.Strategy = root.strategy()
	root.emit(spec, &st.pk, res)
	return nil
}

// --- the selection-vector feeder ---

// feedSelection drives the selection vector through the core —
// sequentially into st, or split by column.ForChunks into contiguous
// per-worker spans (index ranges of the position list, word ranges of
// the bitmap), each worker feeding its own pooled state and the partials
// merging into the first — and returns the state holding the complete
// accumulators. The packing and the source stay with the query's root
// state and are handed to the workers by pointer: copying their slice
// headers into pooled worker states would alias the backing arrays
// across pooled states.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func feedSelection(spec *Spec, st *runState, sel column.PosList, bm *column.Bitmap, n int) *runState {
	pk, src := &st.pk, &st.src
	src.set(spec, sel, bm)
	dense := chooseDense(pk, n)
	total := len(sel)
	if bm != nil {
		total = bm.Words()
	}
	if spec.Threads < 2 || n < minParallel {
		st.feedSpan(spec, pk, dense, src, 0, total)
		return st
	}
	states := st.workerStates(spec.Threads)
	ran := column.ForChunks(total, len(states), 1, func(w, lo, hi int) {
		states[w].feedSpan(spec, pk, dense, src, lo, hi)
	})
	for _, ws := range states[1:ran] {
		states[0].merge(spec, pk, ws)
	}
	return states[0]
}

// source is the selection a feedSpan reads: a position list, or a bitmap
// and — when every view the spec references is plain — their base
// arrays, off which the bitmap's all-ones runs fold in place.
type source struct {
	sel        column.PosList
	bm         *column.Bitmap
	runs       bool
	keys, aggs [][]int64 // the base arrays per key and per aggregate when runs
}

// set points the source at one execution's selection.
//
//holistic:alloc-ok grows the retained buffers on first use or resize
func (s *source) set(spec *Spec, sel column.PosList, bm *column.Bitmap) {
	s.sel, s.bm, s.runs = sel, bm, bm != nil
	s.keys, s.aggs = s.keys[:0], s.aggs[:0]
	for _, k := range spec.Keys {
		s.runs = s.runs && k.View.Plain()
		s.keys = append(s.keys, k.View.Base)
	}
	for _, w := range spec.AggViews { // count(*)'s zero view is plain and never read
		s.runs = s.runs && w.Plain()
		s.aggs = append(s.aggs, w.Base)
	}
}

// drop forgets the caller's selection and arrays before the state pools.
//
//holistic:noalloc
func (s *source) drop() {
	clear(s.keys)
	clear(s.aggs)
	s.sel, s.bm = nil, nil
}

// run returns the length of the run of all-ones words opening at bitmap
// word w, capped at a chunk and at end: 0 when there is none, or when
// the source cannot fold in place.
//
//holistic:noalloc
func (s *source) run(w, end int) int {
	if !s.runs {
		return 0
	}
	end = min(end, w+chunkSize/64)
	n := 0
	for w+n < end && s.bm.Word(w+n) == ^uint64(0) {
		n++
	}
	return n
}

// feedSpan starts st and folds the span [lo, hi) of the selection —
// positions of a list, words of a bitmap — a chunk at a time: a run of
// all-ones words straight off the base arrays, anything else gathered
// at its decoded positions.
//
//holistic:noalloc
func (st *runState) feedSpan(spec *Spec, pk *packing, dense bool, src *source, lo, hi int) {
	st.start(spec, pk, dense)
	for cursor := lo; cursor < hi; {
		var c chunk
		if n := src.run(cursor, hi); n > 0 {
			c = chunk{n: n * 64, keys: src.keys, aggs: src.aggs, off: cursor * 64}
			cursor += n
		} else {
			c.pos = st.nextChunk(src, &cursor, hi)
			c.n = len(c.pos)
		}
		if c.n > 0 {
			st.fold(spec, pk, &c)
		}
	}
}

// nextChunk decodes the next chunk of selected positions from the span
// [*cursor, end): a slice of the position list, or set bits of the next
// word range, stopping where a run feedSpan folds in place opens. It
// returns a borrowed slice valid until the next call, and advances the
// cursor by at least one word.
//
//holistic:noalloc
func (st *runState) nextChunk(src *source, cursor *int, end int) column.PosList {
	if src.bm == nil {
		lo := *cursor
		hi := min(lo+chunkSize, end)
		*cursor = hi
		return src.sel[lo:hi]
	}
	buf := st.posbuf[:0]
	for *cursor < end && len(buf) < chunkSize-64 {
		w := *cursor
		stop := min(w+(chunkSize-len(buf))/64, end) // > w by the loop bound
		for i := w; src.runs && i < stop; i++ {
			if src.bm.Word(i) == ^uint64(0) {
				stop = i
				break
			}
		}
		if stop == w {
			break
		}
		buf = src.bm.AppendPositionsWords(buf, w, stop)
		*cursor = stop
	}
	return buf
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

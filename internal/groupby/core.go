package groupby

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"holistic/internal/column"
)

// runState is the pooled accumulation core and its scratch: chunk
// buffers, the query's packing and the dense/hash accumulator sets,
// recycled so steady-state grouped queries allocate nothing. One state
// accumulates one execution (or one worker's partition of it) between
// start and emit.
type runState struct {
	pk      packing
	isDense bool // which of the two accumulator sets is live
	dense   denseState
	hash    hashState
	// Chunk scratch, each chunkSize long.
	posbuf  column.PosList // decoded bitmap positions / a cluster's selected rows
	keybuf  []int64        // the gathered key column / a cluster's selected keys
	valbuf  []int64        // the gathered aggregate column
	ids     []int32        // accumulator index per chunk row: dense slot or hash group
	packbuf []uint64       // packed composite keys, hash side

	tuplebuf []int64 // row-major raw key tuples, tuple-keyed hash side
	passes   []pass  // the chunk's aggregate passes, one per input column
	src      source  // the selection feedSelection reads
	walk     clusterWalk
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
	st.src.drop()
	runStatePool.Put(st)
}

// start readies st to accumulate one execution over pk: dense arrays of
// pk.slots slots, or an empty hash table — tuple-keyed from the outset
// when the composite does not fit 64 bits.
//
//holistic:alloc-ok grows the retained buffers on first use or resize
func (st *runState) start(spec *Spec, pk *packing, dense bool) {
	if st.ids == nil {
		st.posbuf = make(column.PosList, 0, chunkSize)
		st.keybuf = make([]int64, 0, chunkSize)
		st.valbuf = make([]int64, 0, chunkSize)
		st.ids = make([]int32, chunkSize)
		st.packbuf = make([]uint64, chunkSize)
	}
	if cap(st.passes) < len(spec.Aggs) {
		st.passes = make([]pass, 0, len(spec.Aggs))
	}
	st.isDense = dense
	if dense {
		st.dense.reset(spec, pk.slots)
		return
	}
	st.hash.reset(spec)
	st.hash.tuple = !pk.packable()
}

// strategy names the accumulator set that executed.
//
//holistic:noalloc
func (st *runState) strategy() Strategy {
	if st.isDense {
		return StrategyDense
	}
	return StrategyHash
}

// --- the core ---

// chunk is the core's input format: at most chunkSize position-aligned
// rows, plus where their columns come from — the one thing a feeder
// decides. Caller-held columns (or base arrays, for an all-ones bitmap
// run) are read at [off, off+n); a nil set is gathered at pos through
// the spec's update-aware views.
type chunk struct {
	n          int
	pos        column.PosList
	keys, aggs [][]int64
	off        int
}

// keyCol returns key i's values over the chunk, borrowed until the next
// keyCol call.
//
//holistic:noalloc
func (st *runState) keyCol(spec *Spec, c *chunk, i int) []int64 {
	if c.keys != nil {
		return c.keys[i][c.off : c.off+c.n]
	}
	st.keybuf = spec.Keys[i].View.GatherRows(st.keybuf[:0], c.pos)
	return st.keybuf
}

// aggCol returns aggregate a's input values over the chunk, borrowed
// until the next aggCol call.
//
//holistic:noalloc
func (st *runState) aggCol(spec *Spec, c *chunk, a int) []int64 {
	if c.aggs != nil {
		return c.aggs[a][c.off : c.off+c.n]
	}
	st.valbuf = spec.AggViews[a].GatherRows(st.valbuf[:0], c.pos)
	return st.valbuf
}

// packKeys packs the chunk's composite keys into dst — dense slot
// indices and 64-bit hash keys alike; false the moment a key value
// escapes its declared domain (only possible when the caller's bounds
// were stale), in which case dst is garbage and nothing has been
// accumulated.
//
//holistic:noalloc
func packKeys[T int32 | uint64](st *runState, spec *Spec, pk *packing, c *chunk, dst []T) bool {
	for i := range spec.Keys {
		vals := st.keyCol(spec, c, i)
		dst := dst[:len(vals)]
		lo, span, shift := pk.los[i], pk.spans[i], pk.shifts[i]
		if i == 0 {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				dst[j] = T(d << shift)
			}
		} else {
			for j, v := range vals {
				d := uint64(v - lo)
				if d >= span {
					return false
				}
				dst[j] |= T(d << shift)
			}
		}
	}
	return true
}

// fold is the one grouped-aggregation pipeline, run per chunk by every
// feeder: pack the composite keys, turn them into accumulator indices
// (the packed key itself under dense, a probed group under hash), then
// one pass per distinct aggregate input column, the first of which also
// counts. A key value escaping its declared domain migrates a dense
// state to hash and rekeys the hash by raw tuple, which depends on no
// domain knowledge: stale bounds must never produce ambiguous packed
// keys.
//
//holistic:noalloc
func (st *runState) fold(spec *Spec, pk *packing, c *chunk) {
	ids := st.ids[:c.n]
	if st.isDense && !packKeys(st, spec, pk, c, ids) {
		st.migrate(spec, pk)
	}
	counts, accs := st.dense.counts, st.dense.accs
	if !st.isDense {
		h := &st.hash
		if !h.tuple {
			if packed := st.packbuf[:c.n]; packKeys(st, spec, pk, c, packed) {
				for j, p := range packed {
					ids[j] = h.groupOf(spec, pk, p)
				}
			} else {
				h.toTupleMode()
			}
		}
		if h.tuple {
			// Transpose the key columns to row-major tuples, then probe.
			nk := len(spec.Keys)
			st.tuplebuf = grow64(st.tuplebuf, nk*c.n)
			tb := st.tuplebuf
			for k := range spec.Keys {
				for j, v := range st.keyCol(spec, c, k) {
					tb[j*nk+k] = v
				}
			}
			for j := range ids {
				ids[j] = h.groupOfTuple(spec, tb[j*nk:(j+1)*nk])
			}
		}
		counts, accs = h.counts, h.accs
	}
	passes := st.planPasses(spec, c)
	if len(passes) == 0 {
		for _, g := range ids {
			counts[g]++
		}
	}
	for i, p := range passes {
		if i > 0 {
			counts = nil
		}
		foldColumn(ids, st.aggCol(spec, c, p.col), counts, accOf(accs, p.agg[0]), accOf(accs, p.agg[1]), accOf(accs, p.agg[2]))
	}
}

// pass is one loop of fold over one aggregate input column: agg[k] is
// the aggregate of kind KindSum+k folded from it, -1 for none.
type pass struct {
	col int // an aggregate reading the column
	agg [3]int
}

// accOf returns aggregate a's accumulators, nil for -1.
//
//holistic:noalloc
func accOf(accs [][]int64, a int) []int64 {
	if a < 0 {
		return nil
	}
	return accs[a]
}

// planPasses groups the chunk's sum/min/max aggregates by input column
// into st.passes.
//
//holistic:noalloc
func (st *runState) planPasses(spec *Spec, c *chunk) []pass {
	ps := st.passes[:0]
	for a, agg := range spec.Aggs {
		if agg.Kind == KindCount {
			continue
		}
		k, i := agg.Kind-KindSum, 0
		for i < len(ps) && !(sameInput(spec, c, ps[i].col, a) && ps[i].agg[k] < 0) {
			i++
		}
		if i == len(ps) {
			ps = append(ps, pass{col: a, agg: [3]int{-1, -1, -1}})
		}
		ps[i].agg[k] = a
	}
	st.passes = ps
	return ps
}

// sameInput reports whether aggregates a and b read the same column of
// the chunk: the same slice when the chunk carries its columns, the same
// attribute when they are gathered — Spec's contract makes that the same
// view.
//
//holistic:noalloc
func sameInput(spec *Spec, c *chunk, a, b int) bool {
	if c.aggs == nil {
		return spec.Aggs[a].Attr == spec.Aggs[b].Attr
	}
	x, y := c.aggs[a], c.aggs[b]
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// foldColumn is one pass over a chunk's input column: for each row it
// counts the row's group and folds the row's value into every
// accumulator given — the column's sum, min and max; nil skips one.
// With all four given (the fused count/sum/min/max plan) it runs a copy
// of the loop without the per-row nil tests and with one bounds check,
// which makes it a third to a half faster.
//
//holistic:noalloc
func foldColumn(ids []int32, vals []int64, counts, sum, mn, mx []int64) {
	vals = vals[:len(ids)]
	if counts != nil && sum != nil && mn != nil && mx != nil {
		n := len(counts) // equal lengths leave one bounds check per row
		sum, mn, mx = sum[:n], mn[:n], mx[:n]
		for j, g := range ids {
			v := vals[j]
			counts[g]++
			sum[g] += v
			if v < mn[g] {
				mn[g] = v
			}
			if v > mx[g] {
				mx[g] = v
			}
		}
		return
	}
	for j, g := range ids {
		v := vals[j]
		if counts != nil {
			counts[g]++
		}
		if sum != nil {
			sum[g] += v
		}
		if mn != nil && v < mn[g] {
			mn[g] = v
		}
		if mx != nil && v > mx[g] {
			mx[g] = v
		}
	}
}

// migrate converts the dense partial into hash groups — the only
// dense→hash conversion. A dense slot is the packed composite key
// itself, so the conversion is a walk over the occupied slots.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *runState) migrate(spec *Spec, pk *packing) {
	d, h := &st.dense, &st.hash
	h.reset(spec)
	for s, c := range d.counts {
		if c == 0 {
			continue
		}
		g := h.groupOf(spec, pk, uint64(s))
		h.counts[g] = c
		for a, agg := range spec.Aggs {
			if agg.Kind != KindCount {
				h.accs[a][g] = d.accs[a][s]
			}
		}
	}
	st.isDense = false
}

// merge folds the partial src accumulated over the same packing into
// st. Dense partials merge slot by slot; a worker whose partial
// migrated forces the merge through hash.
//
//holistic:noalloc
func (st *runState) merge(spec *Spec, pk *packing, src *runState) {
	if st.isDense && src.isDense {
		mergeDense(spec, &st.dense, &src.dense)
		return
	}
	if st.isDense {
		st.migrate(spec, pk)
	}
	if src.isDense {
		src.migrate(spec, pk)
	}
	mergeHash(spec, pk, &st.hash, &src.hash)
}

// emit appends the accumulated groups to res in ascending key order.
//
//holistic:noalloc
func (st *runState) emit(spec *Spec, pk *packing, res *Result) {
	if st.isDense {
		emitDense(spec, pk, &st.dense, res)
	} else {
		emitHash(spec, &st.hash, res)
	}
}

// identity is the accumulator value an aggregate starts from, chosen so
// folding and merging need no first-touch branch.
//
//holistic:noalloc
func identity(k Kind) int64 {
	switch k {
	case KindMin:
		return math.MaxInt64
	case KindMax:
		return math.MinInt64
	}
	return 0
}

// mergeGroup combines group sg of the partial accumulators src into
// group dg of dst. Partial merge keeps its own Sum/Min/Max switch: it
// combines two accumulators at two unrelated indices, where fold
// combines an accumulator with a column through an index vector.
//
//holistic:noalloc
func mergeGroup(spec *Spec, dst [][]int64, dg int, src [][]int64, sg int) {
	for a, agg := range spec.Aggs {
		switch agg.Kind {
		case KindSum:
			dst[a][dg] += src[a][sg]
		case KindMin:
			dst[a][dg] = min(dst[a][dg], src[a][sg])
		case KindMax:
			dst[a][dg] = max(dst[a][dg], src[a][sg])
		}
	}
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

// resizeFill returns s resized to n elements, all set to v.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func resizeFill(s []int64, n int, v int64) []int64 {
	if cap(s) < n {
		s = make([]int64, n)
	}
	s = s[:n]
	if v == 0 {
		clear(s)
		return s
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// --- dense accumulators ---

// denseState is the array-indexed accumulator set: one slot per packed
// composite key. counts doubles as the occupancy gate; the aggregate
// arrays start at their identity so accumulation needs no branches on
// first touch.
type denseState struct {
	counts []int64
	accs   [][]int64 // per aggregate; empty for KindCount
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (d *denseState) reset(spec *Spec, slots int) {
	d.counts = resizeFill(d.counts, slots, 0)
	d.accs = resizeCols(d.accs, len(spec.Aggs))
	for a, agg := range spec.Aggs {
		if agg.Kind != KindCount {
			d.accs[a] = resizeFill(d.accs[a], slots, identity(agg.Kind))
		}
	}
}

// mergeDense folds a worker partial into dst slot by slot.
//
//holistic:noalloc
func mergeDense(spec *Spec, dst, src *denseState) {
	for s, c := range src.counts {
		if c != 0 {
			dst.counts[s] += c
			mergeGroup(spec, dst.accs, s, src.accs, s)
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

// --- hash accumulators ---

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
func (h *hashState) reset(spec *Spec) {
	if len(h.table) < 64 {
		h.table = make([]int32, 64)
	}
	clear(h.table)
	h.mask = uint64(len(h.table) - 1)
	h.packed = h.packed[:0]
	h.keys = resizeCols(h.keys, len(spec.Keys)) // truncates retained columns in place
	h.counts = h.counts[:0]
	h.accs = resizeCols(h.accs, len(spec.Aggs))
	h.n = 0
	h.tuple = false
}

// toTupleMode rekeys the table by raw tuple: existing groups keep their
// indices (the stored raw keys are exact), only the probe table is
// rebuilt. A no-op when already tuple-keyed.
//
//holistic:noalloc
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
func (h *hashState) grow() {
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
	h.packed = append(h.packed, packed)
	for k := range spec.Keys {
		h.keys[k] = append(h.keys[k], pk.unpack(packed, k))
	}
	return h.newGroup(spec, i)
}

// groupOfTuple is groupOf keyed by the raw key tuple.
//
//holistic:noalloc
func (h *hashState) groupOfTuple(spec *Spec, tuple []int64) int32 {
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
	for k, v := range tuple {
		h.keys[k] = append(h.keys[k], v)
	}
	return h.newGroup(spec, i)
}

// newGroup appends a fresh group with identity-initialized accumulators
// (its keys are already stored) and claims the free probe slot i for it.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (h *hashState) newGroup(spec *Spec, i uint64) int32 {
	g := h.n
	h.n++
	h.counts = append(h.counts, 0)
	for a, agg := range spec.Aggs {
		if agg.Kind != KindCount {
			h.accs[a] = append(h.accs[a], identity(agg.Kind))
		}
	}
	h.table[i] = int32(g + 1)
	if uint64(h.n)*4 >= uint64(len(h.table))*3 {
		h.grow()
	}
	return int32(g)
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
			dg = dst.groupOfTuple(spec, tuple)
		}
		dst.counts[dg] += src.counts[g]
		mergeGroup(spec, dst.accs, int(dg), src.accs, g)
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

// Package query is the multi-predicate query subsystem: a planner and
// executor for conjunctive select-project-aggregate queries of the form
//
//	SELECT agg(c) FROM R WHERE a BETWEEN .. AND b BETWEEN .. [AND ...]
//
// over any mode of the engine.Executor. It follows the column-store pipeline
// of the paper's Section 3.1, generalized to several predicates:
//
//  1. Plan: estimate each conjunct's selectivity — exactly, when the
//     mode's index structures can answer (sorted columns, existing
//     cracker boundaries, via Executor.EstimateCount), otherwise a
//     uniform guess over the attribute's cached value domain — and
//     order the conjuncts most selective first.
//  2. Choose a representation for the intermediate selection vector
//     from the driving conjunct's estimated selectivity: a dense drive
//     (at or above the bitmap crossover) flows through a word-packed
//     column.Bitmap — one bit per base position, residual conjuncts
//     intersect word at a time — while a sparse drive materializes the
//     classic position list and refines by positional probes. Both
//     representations live in pooled scratch, so the steady-state
//     count/aggregate path allocates nothing.
//  3. Drive: evaluate the most selective conjunct through the mode's
//     native access path (Executor.SelectBitmap or Executor.SelectRows:
//     cracked pieces, sorted slices or parallel scan), producing the
//     candidate selection vector. This is the only conjunct that builds
//     or refines an index.
//  4. Refine: evaluate every remaining conjunct against the candidate
//     vector in place — bitmap words ANDed against branch-free
//     predicate masks (zero words skipped), or position lists filtered
//     by probes into the attribute's current data (column.View, late
//     tuple reconstruction) — cheapest first, so each pass runs over
//     the smallest possible intermediate.
//  5. Project/aggregate: count, fold or fetch at the surviving
//     positions; the bitmap converts to positions (already ascending)
//     only at this boundary, and only for the materializing forms.
//
// Under ModeHolistic every conjunct — not only the driving one — is
// reported to the executor (Executor.NotePredicate), so all touched
// attributes enter the index space and background refinement spreads
// across them; a later query can then drive on any of them cheaply.
//
// Updates: the driving select merges the pending operations covering
// its range (as every single-attribute select does), and the probe
// views reflect all logical inserts/deletes/updates regardless of merge
// state, so conjunctive results are correct under concurrent updates.
// Rows that lack a value in a referenced attribute (inserted into other
// attributes only, or deleted) never qualify, mirroring SQL NULL
// semantics.
package query

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/column"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/obs"
	"holistic/internal/obs/observer"
)

// Predicate is one range conjunct: lo <= attr < hi.
type Predicate struct {
	Attr   string
	Lo, Hi int64
}

// RepPolicy selects the intermediate-representation policy of a Runner.
type RepPolicy int32

const (
	// RepAuto picks per query from the driving conjunct's estimated
	// selectivity (the crossover rule). The default.
	RepAuto RepPolicy = iota
	// RepPosList forces position-list intermediates (the pre-bitmap
	// behaviour); used by tests and the crossover benchmark.
	RepPosList
	// RepBitmap forces bitmap intermediates.
	RepBitmap
)

// DefaultBitmapCrossover is the driving-conjunct selectivity at and
// above which RepAuto picks the bitmap representation. A bitmap costs
// N/8 bytes regardless of selectivity while a position list costs 4
// bytes per qualifying row, so memory parity sits at ~3% selectivity;
// time parity sits a little higher because the branch-free word scan
// pays a fixed O(N/64) pass while the position list's branchy scan is
// cheap exactly when the branch is predictable (low selectivity) and
// misprediction-bound when it is not. The selvec benchmark sweeps the
// crossover empirically: on the development machine the curves met
// between 5% and 10% driving selectivity (bitmap 0.9x at 5%, 1.25x at
// 10%, 3.1x at 50%), and the bitmap path additionally runs
// allocation-free, so the default sits at the low end of that band.
const DefaultBitmapCrossover = 0.06

// Runner plans and executes conjunctive queries over one table through
// one executor mode. It is safe for concurrent use.
type Runner struct {
	table   *engine.Table
	exec    *engine.Executor
	threads int

	policy        atomic.Int32
	crossover     atomic.Uint64 // math.Float64bits of the crossover selectivity
	groupStrategy atomic.Int32  // groupby.Strategy override for grouped queries
	joinStrategy  atomic.Int32  // JoinStrategy override for joins driven by this runner

	// scratchPool recycles per-query execution state (selection
	// vectors, view maps, plan arrays) so steady-state queries do not
	// allocate.
	scratchPool sync.Pool

	// ob is the store's observer: every terminal's bracket, every
	// representation and strategy choice and every admitted predicate
	// goes to it, one call per site. nil leaves the runner uninstrumented
	// (the calls are nil-safe). Attach before the first query.
	ob *observer.Observer

	mu      sync.Mutex
	domains map[string][2]int64 // cached base-column min/max per attribute
}

// New builds a runner; threads bounds the parallelism of probe and
// fetch kernels.
func New(t *engine.Table, exec *engine.Executor, threads int) *Runner {
	if threads < 1 {
		threads = 1
	}
	r := &Runner{table: t, exec: exec, threads: threads, domains: make(map[string][2]int64)}
	r.crossover.Store(math.Float64bits(DefaultBitmapCrossover))
	return r
}

// SetRepPolicy overrides the intermediate-representation policy; safe
// to call concurrently with queries.
func (r *Runner) SetRepPolicy(p RepPolicy) { r.policy.Store(int32(p)) }

// SetBitmapCrossover overrides the RepAuto crossover selectivity; safe
// to call concurrently with queries.
func (r *Runner) SetBitmapCrossover(sel float64) { r.crossover.Store(math.Float64bits(sel)) }

// SetObserver attaches the observer every terminal records into (nil
// detaches). Attach before running queries; the recording paths
// themselves are zero-allocation.
func (r *Runner) SetObserver(ob *observer.Observer) { r.ob = ob }

// ErrNoPredicates is returned by query forms invoked without a single
// Where clause.
var ErrNoPredicates = fmt.Errorf("query: at least one predicate is required")

// scratch is the pooled per-query execution state. Exactly one of sel
// (position-list form) or bm (bitmap form) carries the candidates after
// runSel; views holds the snapshot each referenced attribute was
// filtered through, which the fetch step MUST reuse — a fresh snapshot
// taken later could already reflect a concurrent delete and would make
// the fetch fail.
type scratch struct {
	preds []Predicate
	ests  []float64
	sel   column.PosList
	bm    *column.Bitmap
	views map[string]column.View
	// Grouped-query extensions: the referenced-attribute work list and
	// the groupby spec (with its backing arrays), reused per query.
	extras []string
	gkeys  []groupby.Key
	gviews []column.View
	gspec  groupby.Spec
	// Join-side extensions: the gathered join keys, their aligned rows
	// and the payload values of one side, reused per query.
	jkeys []int64
	jrows column.PosList
	jvals []int64
	// Telemetry: the open observer bracket (sequence number, start and —
	// when a sink is attached or an Explain runs — the trace the stages
	// fill), the stage durations (timed when observed or traced) and the
	// two statistics behind the last physical-strategy choice (key-order
	// spans; always set by the choosers so the strategy audit event
	// carries its inputs).
	sp                observer.Span
	driveNs, refineNs int64
	fstat             [2]float64
}

//holistic:alloc-ok pool warm-up allocates the recycled object
func (r *Runner) getScratch() *scratch {
	sc, _ := r.scratchPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{bm: column.NewBitmap(0), views: make(map[string]column.View, 4)}
	}
	return sc
}

//holistic:noalloc
func (r *Runner) putScratch(sc *scratch) {
	clear(sc.views) // drop references to column data; buckets are retained
	sc.sel = sc.sel[:0]
	sc.preds = sc.preds[:0]
	sc.ests = sc.ests[:0]
	sc.extras = sc.extras[:0]
	clear(sc.gkeys) // drop view references; capacity is retained
	sc.gkeys = sc.gkeys[:0]
	clear(sc.gviews)
	sc.gviews = sc.gviews[:0]
	sc.gspec = groupby.Spec{}
	sc.jkeys = sc.jkeys[:0]
	sc.jrows = sc.jrows[:0]
	sc.jvals = sc.jvals[:0]
	sc.sp = observer.Span{}
	sc.driveNs, sc.refineNs = 0, 0
	sc.fstat[0], sc.fstat[1] = 0, 0
	r.scratchPool.Put(sc)
}

// begin opens one terminal: pooled scratch holding the observer's open
// bracket. own is the Explain path's caller-owned trace, nil otherwise.
//
//holistic:noalloc
func (r *Runner) begin(op obs.Op, own *obs.QueryTrace) *scratch {
	sc := r.getScratch()
	sc.sp = r.ob.Begin(op, own)
	if tr := sc.sp.Trace; tr != nil {
		tr.Mode = r.exec.Label()
		tr.Rows = r.table.Rows()
	}
	return sc
}

// finish closes a begin bracket — the observer records the op latency
// and the query event, emits and recycles the trace — and returns the
// scratch.
//
//holistic:noalloc
func (r *Runner) finish(sc *scratch, result int64, err error) {
	r.ob.End(sc.sp, sc.driveNs, sc.refineNs, result, err)
	r.putScratch(sc)
}

// domain returns the cached [min, max] of attr's base column, scanning
// it once on first use unless the column was loaded knowing them.
//
//holistic:noalloc
func (r *Runner) domain(attr string) (lo, hi int64) {
	r.mu.Lock()
	d, ok := r.domains[attr]
	r.mu.Unlock()
	if ok {
		return d[0], d[1]
	}
	col := r.table.Column(attr)
	if lo, hi, ok = col.KnownBounds(); !ok {
		lo, hi = column.Bounds(col.Values())
	}
	r.mu.Lock()
	r.domains[attr] = [2]int64{lo, hi}
	r.mu.Unlock()
	return lo, hi
}

// estimate returns the expected number of qualifying tuples for one
// conjunct: the executor's index-based answer when available, otherwise
// a uniform guess over the attribute's base domain.
//
//holistic:noalloc
func (r *Runner) estimate(p Predicate) float64 {
	if n, _, ok := r.exec.EstimateCount(p.Attr, p.Lo, p.Hi); ok {
		return n
	}
	dLo, dHi := r.domain(p.Attr)
	return column.UniformEstimate(float64(r.table.Rows()), dLo, dHi, p.Lo, p.Hi)
}

// Plan orders the conjuncts most selective first (stable on ties) and
// returns the per-conjunct estimates alongside, aligned with the
// returned order. Exported for telemetry and tests; the query forms
// plan internally through pooled scratch.
func (r *Runner) Plan(preds []Predicate) ([]Predicate, []float64) {
	ordered := make([]Predicate, len(preds))
	ests := make([]float64, len(preds))
	copy(ordered, preds)
	for i, p := range ordered {
		ests[i] = r.estimate(p)
	}
	sortByEstimate(ordered, ests)
	return ordered, ests
}

// sortByEstimate stably sorts preds ascending by est (insertion sort:
// conjunct counts are tiny and it allocates nothing).
//
//holistic:noalloc
func sortByEstimate(preds []Predicate, ests []float64) {
	for i := 1; i < len(preds); i++ {
		for j := i; j > 0 && ests[j] < ests[j-1]; j-- {
			ests[j], ests[j-1] = ests[j-1], ests[j]
			preds[j], preds[j-1] = preds[j-1], preds[j]
		}
	}
}

// planScratch validates attributes, intersects duplicate attributes
// into one conjunct, reports empty ranges, and orders the surviving
// conjuncts most selective first — all into sc, allocating nothing once
// the scratch is warm.
//
// errf builds a formatted error; the noalloc entry points route their
// cold error paths through it so the allocation sits behind one
// reviewed boundary.
//
//holistic:alloc-ok error paths format their diagnostics
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

//holistic:alloc-ok error paths format diagnostics
func (r *Runner) planScratch(sc *scratch, preds []Predicate) (empty bool, err error) {
	if len(preds) == 0 {
		return false, ErrNoPredicates
	}
	out := sc.preds[:0]
	for _, p := range preds {
		if r.table.Column(p.Attr) == nil {
			return false, fmt.Errorf("query: unknown attribute %q", p.Attr)
		}
		merged := false
		for i := range out {
			if out[i].Attr == p.Attr {
				if p.Lo > out[i].Lo {
					out[i].Lo = p.Lo
				}
				if p.Hi < out[i].Hi {
					out[i].Hi = p.Hi
				}
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, p)
		}
	}
	sc.preds = out
	for _, p := range out {
		if p.Lo >= p.Hi {
			return true, nil
		}
	}
	ests := sc.ests[:0]
	for _, p := range out {
		ests = append(ests, r.estimate(p))
	}
	sc.ests = ests
	sortByEstimate(sc.preds, sc.ests)
	if tr := sc.sp.Trace; tr != nil {
		for i, p := range sc.preds {
			tr.AddConjunct(p.Attr, p.Lo, p.Hi, sc.ests[i], i == 0)
		}
	}
	if r.ob != nil {
		// Predicate admission charges the access heatmaps, every
		// conjunct's span once.
		for _, p := range sc.preds {
			dLo, dHi := r.domain(p.Attr)
			r.ob.Predicate(p.Attr, p.Lo, p.Hi, dLo, dHi)
		}
	}
	return false, nil
}

// chooseBitmap applies the representation policy to the planned query
// in sc: bitmaps pay off only when the driving conjunct is dense and
// there is at least one residual conjunct to intersect. The reason is a static string for the
// trace — the numbers it refers to travel as trace stats.
//
//holistic:noalloc
func (r *Runner) chooseBitmap(sc *scratch) (bool, string) {
	if len(sc.preds) < 2 {
		return false, "single conjunct: nothing to intersect"
	}
	switch RepPolicy(r.policy.Load()) {
	case RepPosList:
		return false, "policy pins position lists"
	case RepBitmap:
		return true, "policy pins bitmaps"
	}
	rows := float64(r.table.Rows())
	if rows <= 0 {
		return false, "empty relation"
	}
	if sc.ests[0] >= math.Float64frombits(r.crossover.Load())*rows {
		return true, "estimated driving selectivity at or above crossover"
	}
	return false, "estimated driving selectivity below crossover"
}

// repChoice tells runSel how to represent the intermediate selection
// vector: by the crossover rule, or pinned (the grouped path always
// wants the bitmap — its accumulators and the sort strategy's cluster
// membership tests both consume bits).
type repChoice int

const (
	repByPolicy repChoice = iota
	repWantBitmap
)

// runSel executes plan steps 2-4 plus the presence filter for the
// extra (aggregate/projection) attributes: the driving conjunct runs
// through the mode's access path in the chosen representation, the rest
// refine in place. On return the candidates sit in sc.bm (useBitmap
// true) or sc.sel, and sc.views holds the snapshot each attribute was
// filtered through.
//
//holistic:noalloc
func (r *Runner) runSel(sc *scratch, extraAttrs []string, rep repChoice) (useBitmap bool, err error) {
	drive := sc.preds[0]
	var reason string
	if rep == repWantBitmap {
		useBitmap, reason = true, "pipeline consumes bits (grouped/join path)"
	} else {
		useBitmap, reason = r.chooseBitmap(sc)
	}
	repKind := obs.RepPosList
	if useBitmap {
		repKind = obs.RepBitmap
	}
	r.ob.Rep(sc.sp.Seq, repKind, sc.ests[0], len(sc.preds))
	tr := sc.sp.Trace
	timed := tr != nil || r.ob != nil
	var t0 time.Time
	if tr != nil {
		if useBitmap {
			tr.Rep = "bitmap"
		} else {
			tr.Rep = "poslist"
		}
		tr.RepReason = reason
		tr.SetStat("est_driving_rows", sc.ests[0])
	}
	if timed {
		t0 = time.Now()
	}
	if useBitmap {
		if err := r.exec.SelectBitmap(drive.Attr, drive.Lo, drive.Hi, sc.bm); err != nil {
			return false, err
		}
	} else {
		rows, err := r.exec.SelectRows(drive.Attr, drive.Lo, drive.Hi)
		if err != nil {
			return false, err
		}
		sc.sel = rows // SelectRows results are caller-owned: refine in place
	}
	if timed {
		// The ledger's drive credit is the executor's to give (its
		// epilogue sees every door); this split feeds the query event.
		sc.driveNs = time.Since(t0).Nanoseconds()
	}
	if tr != nil {
		if useBitmap {
			tr.Scanned = int64(sc.bm.Count())
		} else {
			tr.Scanned = int64(len(sc.sel))
		}
		tr.SetCum(0, tr.Scanned)
		tr.StageNanos("drive", sc.driveNs)
	}
	if timed {
		t0 = time.Now()
	}
	for _, p := range sc.preds[1:] {
		if err := r.exec.NotePredicate(p.Attr); err != nil {
			return false, err
		}
	}
	// live mirrors the poslist path's len > 0 guards: once the
	// conjunction is empty, later stages skip the data entirely.
	live := !useBitmap || sc.bm.Any()
	for i, p := range sc.preds[1:] {
		w, err := r.exec.View(p.Attr)
		if err != nil {
			return false, err
		}
		sc.views[p.Attr] = w
		evaluated := false
		if useBitmap {
			if live {
				w.FilterBitmap(sc.bm, p.Lo, p.Hi, r.threads)
				live = sc.bm.Any()
				evaluated = true
			}
		} else if len(sc.sel) > 0 {
			sc.sel = w.FilterRowsInPlace(sc.sel, p.Lo, p.Hi, r.threads)
			evaluated = true
		}
		// Surviving counts are measured only when tracing (the bitmap
		// popcount is an extra pass); skipped conjuncts keep CumRows -1.
		if tr != nil && evaluated {
			if useBitmap {
				tr.SetCum(i+1, int64(sc.bm.Count()))
			} else {
				tr.SetCum(i+1, int64(len(sc.sel)))
			}
		}
	}
	if timed && len(sc.preds) > 1 {
		sc.refineNs = time.Since(t0).Nanoseconds()
		if tr != nil {
			tr.StageNanos("refine", sc.refineNs)
		}
	}
	// Range-filtered attributes are present by construction; the other
	// referenced attributes (including the driving one, whose rows came
	// from the index rather than a view) get an explicit presence
	// filter through the snapshot that will serve the fetch.
	for _, attr := range extraAttrs {
		if _, ok := sc.views[attr]; ok {
			continue
		}
		w, err := r.exec.View(attr)
		if err != nil {
			return false, err
		}
		sc.views[attr] = w
		if useBitmap {
			if live {
				w.PresentBitmap(sc.bm)
				live = sc.bm.Any()
			}
		} else if len(sc.sel) > 0 {
			sc.sel = w.PresentRowsInPlace(sc.sel)
		}
	}
	return useBitmap, nil
}

// Count answers "select count(*) where <conjunction>". A single
// conjunct delegates to the mode's native count; a bitmap conjunction
// finishes with a popcount — neither materializes a position list.
//
//holistic:noalloc
func (r *Runner) Count(preds []Predicate) (int, error) {
	sc := r.begin(obs.OpCount, nil)
	n, err := r.countSC(sc, preds)
	r.finish(sc, int64(n), err)
	return n, err
}

//holistic:noalloc
func (r *Runner) countSC(sc *scratch, preds []Predicate) (int, error) {
	empty, err := r.planScratch(sc, preds)
	if err != nil || empty {
		return 0, err
	}
	if len(sc.preds) == 1 {
		r.noteNativeRep(sc, "single conjunct answered by the mode's native count")
		n, err := r.exec.Count(sc.preds[0].Attr, sc.preds[0].Lo, sc.preds[0].Hi)
		r.noteNativeResult(sc, int64(n), err)
		return n, err
	}
	useBm, err := r.runSel(sc, nil, repByPolicy)
	if err != nil {
		return 0, err
	}
	var n int
	if useBm {
		n = sc.bm.Count()
	} else {
		n = len(sc.sel)
	}
	if tr := sc.sp.Trace; tr != nil {
		tr.Emitted = int64(n)
	}
	return n, nil
}

// noteNativeRep marks a traced single-conjunct query as answered by the
// executor's native access path (no intermediate representation).
//
//holistic:noalloc
func (r *Runner) noteNativeRep(sc *scratch, reason string) {
	est := 0.0
	if len(sc.ests) > 0 {
		est = sc.ests[0]
	}
	r.ob.Rep(sc.sp.Seq, obs.RepNative, est, len(sc.preds))
	if tr := sc.sp.Trace; tr != nil {
		tr.Rep = "native"
		tr.RepReason = reason
	}
}

// noteNativeResult records the native path's cardinality on the trace.
//
//holistic:noalloc
func (r *Runner) noteNativeResult(sc *scratch, n int64, err error) {
	if tr := sc.sp.Trace; tr != nil && err == nil {
		tr.SetCum(0, n)
		tr.Scanned, tr.Emitted = n, n
	}
}

// Sum answers "select sum(attr) where <conjunction>". When the single
// conjunct is on attr itself the mode's native pushdown answers
// directly; otherwise attr folds late over the surviving candidates —
// straight off the selection vector, nothing is materialized.
//
//holistic:noalloc
func (r *Runner) Sum(attr string, preds []Predicate) (int64, error) {
	if r.table.Column(attr) == nil {
		return 0, errf("query: unknown attribute %q", attr)
	}
	sc := r.begin(obs.OpSum, nil)
	s, err := r.sumSC(sc, attr, preds)
	r.finish(sc, s, err)
	return s, err
}

//holistic:noalloc
func (r *Runner) sumSC(sc *scratch, attr string, preds []Predicate) (int64, error) {
	empty, err := r.planScratch(sc, preds)
	if err != nil || empty {
		return 0, err
	}
	if len(sc.preds) == 1 && sc.preds[0].Attr == attr {
		r.noteNativeRep(sc, "single conjunct on the aggregated attribute: native sum pushdown")
		return r.exec.Sum(attr, sc.preds[0].Lo, sc.preds[0].Hi)
	}
	extra := [1]string{attr}
	useBm, err := r.runSel(sc, extra[:], repByPolicy)
	if err != nil {
		return 0, err
	}
	if tr := sc.sp.Trace; tr != nil {
		if useBm {
			tr.Emitted = int64(sc.bm.Count())
		} else {
			tr.Emitted = int64(len(sc.sel))
		}
	}
	if useBm {
		return sc.views[attr].SumBitmap(sc.bm), nil
	}
	return sc.views[attr].SumRows(sc.sel, r.threads), nil
}

// Rows materializes the qualifying base row ids in ascending order.
// Bitmap intermediates iterate in ascending position order, so the sort
// disappears on the dense path.
func (r *Runner) Rows(preds []Predicate) ([]uint32, error) {
	sc := r.begin(obs.OpRows, nil)
	rows, err := r.rowsSC(sc, preds)
	r.finish(sc, int64(len(rows)), err)
	return rows, err
}

func (r *Runner) rowsSC(sc *scratch, preds []Predicate) ([]uint32, error) {
	empty, err := r.planScratch(sc, preds)
	if err != nil || empty {
		return nil, err
	}
	if len(sc.preds) == 1 {
		r.noteNativeRep(sc, "single conjunct materialized by the mode's native row select")
		rows, err := r.exec.SelectRows(sc.preds[0].Attr, sc.preds[0].Lo, sc.preds[0].Hi)
		if err != nil {
			return nil, err
		}
		r.noteNativeResult(sc, int64(len(rows)), nil)
		slices.Sort(rows)
		return rows, nil
	}
	useBm, err := r.runSel(sc, nil, repByPolicy)
	if err != nil {
		return nil, err
	}
	var out []uint32
	if useBm {
		out = sc.bm.AppendPositions(make(column.PosList, 0, sc.bm.Count()))
	} else {
		out = append([]uint32(nil), sc.sel...)
		slices.Sort(out)
	}
	if tr := sc.sp.Trace; tr != nil {
		tr.Emitted = int64(len(out))
	}
	return out, nil
}

// Values materializes the requested attributes of the qualifying
// tuples: one aligned slice per attribute, tuples in ascending row-id
// order. This is the project operator over the conjunction's selection
// vector.
func (r *Runner) Values(attrs []string, preds []Predicate) ([][]int64, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("query: Values needs at least one attribute")
	}
	for _, a := range attrs {
		if r.table.Column(a) == nil {
			return nil, fmt.Errorf("query: unknown attribute %q", a)
		}
	}
	sc := r.begin(obs.OpValues, nil)
	out, err := r.valuesSC(sc, attrs, preds)
	var emitted int64
	if len(out) > 0 {
		emitted = int64(len(out[0]))
	}
	r.finish(sc, emitted, err)
	return out, err
}

func (r *Runner) valuesSC(sc *scratch, attrs []string, preds []Predicate) ([][]int64, error) {
	empty, err := r.planScratch(sc, preds)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(attrs))
	if empty {
		for i := range out {
			out[i] = []int64{}
		}
		return out, nil
	}
	useBm, err := r.runSel(sc, attrs, repByPolicy)
	if err != nil {
		return nil, err
	}
	if useBm {
		n := sc.bm.Count()
		for i, a := range attrs {
			out[i] = sc.views[a].FetchBitmap(sc.bm, make([]int64, 0, n))
		}
		return out, nil
	}
	sorted := append(column.PosList(nil), sc.sel...)
	slices.Sort(sorted)
	for i, a := range attrs {
		out[i] = sc.views[a].FetchRows(sorted, r.threads)
	}
	return out, nil
}

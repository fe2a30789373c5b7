// Package query is the multi-predicate query subsystem: a planner and
// executor for conjunctive select-project-aggregate queries of the form
//
//	SELECT agg(c) FROM R WHERE a BETWEEN .. AND b BETWEEN .. [AND ...]
//
// over any mode of the engine.Executor. Every terminal — Count, Sum,
// MinMax, Rows, Values, and the selection half of grouped queries and
// join sides — is one body (Runner.answer) over one intermediate
// (column.Selection), the column-store pipeline of the paper's Section
// 3.1 generalized to several predicates:
//
//  1. Plan (planScratch): estimate each conjunct's selectivity — exactly,
//     when the mode's index structures can answer (sorted columns,
//     existing cracker boundaries, via Executor.EstimateCount),
//     otherwise a uniform guess over the column's Bounds — and order the
//     conjuncts most selective first. A single conjunct the mode has a
//     terminal of its own for stops here (Runner.native).
//  2. Drive (runSel): choose the selection's representation from the
//     driving conjunct's estimated selectivity — a word-packed
//     column.Bitmap at or above the crossover, the classic position list
//     below it — and evaluate that conjunct through the mode's access
//     path (Executor.SelectBitmap or SelectRows: cracked pieces, sorted
//     slices or parallel scan). This is the only place the
//     representation is named.
//  3. Refine (runSel): every remaining conjunct, cheapest first, narrows
//     the selection in place the way chooseResidual's cost rule picks:
//     probed at each candidate through the attribute's update-aware
//     column.View (late tuple reconstruction), or selected through its
//     own access path into a second pooled bitmap and intersected —
//     cracking that index on the way, as the drive does. Attributes
//     referenced but not filtered get a presence filter.
//  4. Consume (answer): count, fold or fetch at the surviving positions;
//     only the materializing forms allocate, and only what they return.
//
// The request and its result cross the stages as one by-value want; the
// selection and everything else live in pooled scratch, so the
// steady-state count/aggregate path allocates nothing.
//
// Under ModeHolistic every conjunct — not only the driving one — enters
// the index space, through its own select or Executor.NotePredicate, so
// background refinement spreads across all touched attributes; once it
// has refined one around a query's bounds, that conjunct is cheap to
// select through its index, driving or not.
//
// Updates: the driving select, and a residual one, merges the pending
// operations covering its range (as every single-attribute select does),
// and the probe views reflect all logical inserts/deletes/updates
// regardless of merge state. A residual selected through its index is
// intersected only if its attribute took no write since the view that
// serves the fetch was taken (Executor.Unchanged), else probed through
// that view, so every residual attribute is read in one state. The
// driving attribute is not: a fold or fetch of it reads a view taken
// after its select, so a concurrent write can show there.
// Rows that lack a value in a referenced attribute (inserted into other
// attributes only, or deleted) never qualify, mirroring SQL NULL
// semantics.
package query

import (
	"fmt"
	"sync"
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

// DefaultBitmapCrossover is the driving-conjunct selectivity at and
// above which chooseRep picks the bitmap representation. A bitmap costs
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

	// scratchPool recycles per-query execution state (selection
	// vectors, view maps, plan arrays) so steady-state queries do not
	// allocate.
	scratchPool sync.Pool

	// ob is the store's observer: every terminal's bracket, every
	// representation and strategy choice and every admitted predicate
	// goes to it, one call per site. nil leaves the runner uninstrumented
	// (the calls are nil-safe). Attach before the first query.
	ob *observer.Observer
}

// New builds a runner; threads bounds the parallelism of probe and
// fetch kernels.
func New(t *engine.Table, exec *engine.Executor, threads int) *Runner {
	return &Runner{table: t, exec: exec, threads: max(threads, 1)}
}

// SetObserver attaches the observer every terminal records into (nil
// detaches). Attach before running queries; the recording paths
// themselves are zero-allocation.
func (r *Runner) SetObserver(ob *observer.Observer) { r.ob = ob }

// ErrNoPredicates is returned by query forms invoked without a single
// Where clause.
var ErrNoPredicates = fmt.Errorf("query: at least one predicate is required")

// scratch is the pooled per-query execution state. sel carries the
// candidates from the drive on; views holds the snapshot each referenced
// attribute was filtered through, which the fetch step MUST reuse — a
// fresh snapshot taken later could already reflect a concurrent delete
// and would make the fetch fail.
type scratch struct {
	preds []Predicate
	ests  []float64
	sel   column.Selection
	// resid receives a residual conjunct selected through its own index,
	// intersected into sel.
	resid *column.Bitmap
	views map[string]column.View
	// extras is the work list of attributes a query references beyond
	// its predicates (aggregate inputs, projections, group and join
	// keys): runSel presence-filters the selection through each.
	extras []string
	// Grouped-query extensions: the groupby spec with its backing
	// arrays, reused per query.
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
		sc = &scratch{sel: column.Selection{Bits: column.NewBitmap(0)}, resid: column.NewBitmap(0), views: make(map[string]column.View, 4)}
	}
	return sc
}

//holistic:noalloc
func (r *Runner) putScratch(sc *scratch) {
	clear(sc.views) // drop references to column data; buckets are retained
	sc.sel.Rows = sc.sel.Rows[:0]
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
	sc.sp.Trace.SetRelation(r.exec.Label(), r.table.Rows())
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

// estimate returns the expected number of qualifying tuples for one
// conjunct: the executor's index-based answer when available, otherwise
// a uniform guess over the attribute's base domain.
//
//holistic:noalloc
func (r *Runner) estimate(p Predicate) float64 {
	if est, ok := r.exec.EstimateCount(p.Attr, p.Lo, p.Hi); ok {
		return est.Rows
	}
	dLo, dHi := r.table.Column(p.Attr).Bounds()
	return column.UniformEstimate(float64(r.table.Rows()), dLo, dHi, p.Lo, p.Hi)
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

// errf builds a formatted error; the noalloc entry points route their
// cold error paths through it so the allocation sits behind one
// reviewed boundary.
//
//holistic:alloc-ok error paths format their diagnostics
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// planScratch is the plan stage: it validates attributes, intersects
// duplicate attributes into one conjunct, reports empty ranges, and
// orders the surviving conjuncts most selective first — all into sc,
// allocating nothing once the scratch is warm.
//
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
				out[i].Lo, out[i].Hi = max(out[i].Lo, p.Lo), min(out[i].Hi, p.Hi)
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
	for i, p := range sc.preds {
		sc.sp.Trace.AddConjunct(p.Attr, p.Lo, p.Hi, sc.ests[i], i == 0)
	}
	return false, nil
}

// chooseRep applies the crossover rule to the planned query in sc:
// bitmaps pay off when the driving conjunct is dense, whether or not a
// residual conjunct is left to intersect — a single conjunct's rows come
// out of a bitmap ascending, where a position list off a cracker needs a
// sort. The reason is a static string for the trace — the numbers it
// refers to travel as trace stats.
//
//holistic:noalloc
func (r *Runner) chooseRep(sc *scratch) (obs.Rep, string) {
	rows := float64(r.table.Rows())
	if rows <= 0 {
		return obs.RepPosList, "empty relation"
	}
	if sc.ests[0] >= DefaultBitmapCrossover*rows {
		return obs.RepBitmap, "estimated driving selectivity at or above crossover"
	}
	return obs.RepPosList, "estimated driving selectivity below crossover"
}

// runSel is the drive and refine stages plus the presence filter for
// sc.extras: it decides the selection's representation — by the
// crossover rule, or bits when the consumer wants them (grouping
// accumulators and the sort strategy's cluster membership tests consume
// bits) — and that is the last place the representation is named: the
// driving conjunct fills sc.sel through the mode's access path, the rest
// refine it in place (refine). On return sc.views holds the snapshot
// each attribute was filtered through.
//
//holistic:noalloc
func (r *Runner) runSel(sc *scratch, bits bool) error {
	drive, sel, tr := sc.preds[0], &sc.sel, sc.sp.Trace
	rep, reason := obs.RepBitmap, "pipeline consumes bits (grouped/join path)"
	if !bits {
		rep, reason = r.chooseRep(sc)
	}
	sel.Dense = rep == obs.RepBitmap
	r.ob.Rep(sc.sp.Seq, rep, sc.ests[0], len(sc.preds))
	tr.SetRep(rep, reason)
	tr.SetStat("est_driving_rows", sc.ests[0])
	timed := tr != nil || r.ob != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var err error
	if sel.Dense {
		err = r.exec.SelectBitmap(drive.Attr, drive.Lo, drive.Hi, sel.Bits)
	} else {
		sel.Rows, err = r.exec.SelectRows(drive.Attr, drive.Lo, drive.Hi) // caller-owned: refined in place
	}
	if err != nil {
		return err
	}
	if timed {
		// The select's latency is the executor's to record (its
		// epilogue sees every door); this split feeds the query event.
		sc.driveNs = time.Since(t0).Nanoseconds()
	}
	if tr != nil { // counting a bitmap is a pass only a trace pays
		tr.Scanned = int64(sel.Count())
		tr.SetCum(0, tr.Scanned)
		tr.StageNanos("drive", sc.driveNs)
	}
	if timed {
		t0 = time.Now()
	}
	// Once the conjunction is empty, later stages skip the data entirely
	// (and a skipped conjunct keeps CumRows -1); every residual still
	// enters the index space — through its own select, or admitted.
	live := sel.Any()
	for i, p := range sc.preds[1:] {
		w, err := r.exec.View(p.Attr)
		if err != nil {
			return err
		}
		sc.views[p.Attr] = w
		index := false
		if live {
			if index, err = r.refine(sc, i+1, p, w); err != nil {
				return err
			}
			live = sel.Any()
			if tr != nil {
				tr.SetCum(i+1, int64(sel.Count()))
			}
		}
		if !index {
			if err := r.exec.NotePredicate(p.Attr); err != nil {
				return err
			}
		}
	}
	if timed && len(sc.preds) > 1 {
		sc.refineNs = time.Since(t0).Nanoseconds()
		tr.StageNanos("refine", sc.refineNs)
	}
	// Range-filtered attributes are present by construction; the other
	// referenced attributes (including the driving one, whose rows came
	// from the index rather than a view) get an explicit presence
	// filter through the snapshot that will serve the fetch.
	for _, attr := range sc.extras {
		if _, ok := sc.views[attr]; ok {
			continue
		}
		w, err := r.exec.View(attr)
		if err != nil {
			return err
		}
		sc.views[attr] = w
		if live {
			w.Present(sel)
			live = sel.Any()
		}
	}
	return nil
}

// chooseResidual is the rule that picks how the residual conjunct p is
// applied to the candidates left: probed through the attribute's view at
// each candidate, or selected through the attribute's own access path and
// intersected. It compares the two estimated costs, candidates × probe
// against rows × mark + work × crack, where rows and work — the values
// the select would partition before answering — are read off the index
// without touching data (Executor.EstimateCount). An attribute with no
// selectable path (scan, CCGI, or not admitted under adaptive) is always
// probed; ok reports whether there was one.
//
//holistic:noalloc
func (r *Runner) chooseResidual(p Predicate, candidates int) (index bool, est engine.Estimate, ok bool) {
	// ns per unit, each the named cell on the development machine (DESIGN §5).
	const (
		probeNs = 13.0 // a candidate filtered: BenchmarkKernels filter-rows/seq/50pct
		markNs  = 2.5  // a qualifying row id set: BenchmarkKernels mark-rows/seq/50pct
		crackNs = 3.0  // a value partitioned: BenchmarkPartition 256Ki/packed/median
	)
	if est, ok = r.exec.EstimateCount(p.Attr, p.Lo, p.Hi); !ok {
		return false, est, false
	}
	return est.Rows*markNs+float64(est.Work)*crackNs < float64(candidates)*probeNs, est, true
}

// refine applies residual conjunct i (pipeline order) to sc.sel the way
// chooseResidual picks, consistently with w, the attribute's snapshot that
// serves the fetch, and records the choice in the trace. index reports
// whether the conjunct was selected through its path.
//
//holistic:noalloc
func (r *Runner) refine(sc *scratch, i int, p Predicate, w column.View) (index bool, err error) {
	sel := &sc.sel
	n := sel.Count()
	index, est, ok := r.chooseResidual(p, n)
	if tr := sc.sp.Trace; tr != nil {
		how, rows := "probe", -1.0
		if index {
			how = "index"
		}
		if ok {
			rows = est.Rows
		}
		tr.SetApplied(i, how, int64(n), rows, int64(est.Work))
	}
	if index {
		if err := r.exec.SelectBitmap(p.Attr, p.Lo, p.Hi, sc.resid); err != nil {
			return true, err
		}
		// The select merged the pending writes in its range. Had one
		// landed since w was taken, the select's rows and w's values —
		// which the presence filters and folds read — could belong to two
		// states: then w alone answers, as a probe.
		if r.exec.Unchanged(p.Attr, w) {
			sel.Intersect(sc.resid)
			return true, nil
		}
	}
	w.Filter(sel, p.Lo, p.Hi, r.threads)
	return index, nil
}

// want is one terminal's request and, once answered, its result. Like
// engine.fold it crosses the pipeline by value: a pointer or a closure
// would escape to the heap and cost the steady state its zero
// allocations.
type want struct {
	op    obs.Op   // OpCount, OpSum, OpMinMax, OpRows or OpValues
	attr  string   // the aggregated attribute (Sum, MinMax)
	attrs []string // the projection list (Values)

	n      int64 // qualifying rows (Count, Rows, Values)
	sum    int64
	mn, mx int64
	ok     bool      // MinMax: a tuple qualified
	rows   []uint32  // Rows: ascending
	cols   [][]int64 // Values: one aligned slice per attrs, tuples by ascending row id
}

// nativeReason is why a single conjunct bypassed the selection vector,
// per terminal that can: the mode's own terminal answers it.
var nativeReason = [obs.NumOps]string{
	obs.OpCount:  "single conjunct answered by the mode's native count",
	obs.OpSum:    "single conjunct on the aggregated attribute: native sum pushdown",
	obs.OpMinMax: "single conjunct on the probed attribute: native minmax pushdown",
}

// run is every terminal between its argument checks and its return:
// begin, answer, finish. own is an Explain door's trace.
//
//holistic:noalloc
func (r *Runner) run(preds []Predicate, w want, own *obs.QueryTrace) (want, error) {
	sc := r.begin(w.op, own)
	w, err := r.answer(sc, preds, w)
	result := w.n
	if w.op == obs.OpSum {
		result = w.sum
	}
	r.finish(sc, result, err)
	return w, err
}

// answer is the one query body: plan, then either the mode's native
// terminal or drive and refine (runSel) and one consume step over the
// surviving selection — a count, a late fold straight off it, or a fetch
// at its positions.
//
//holistic:noalloc
func (r *Runner) answer(sc *scratch, preds []Predicate, w want) (want, error) {
	empty, err := r.planScratch(sc, preds)
	if err != nil || empty {
		return w, err
	}
	// A single conjunct needs no selection vector where the mode has a
	// terminal of its own for it: a count always, a fold when it is over
	// the conjunct's own attribute. A row list is not among them: a
	// cracker hands its rows over in piece order, and sorting them costs
	// more than a bitmap, which comes out ascending.
	if p := sc.preds[0]; len(sc.preds) == 1 && nativeReason[w.op] != "" && (w.attr == "" || w.attr == p.Attr) {
		return r.native(sc, p, w)
	}
	sc.extras = append(sc.extras[:0], w.attrs...)
	if w.attr != "" {
		sc.extras = append(sc.extras, w.attr)
	}
	if err := r.runSel(sc, false); err != nil {
		return w, err
	}
	sel, tr := &sc.sel, sc.sp.Trace
	switch w.op {
	case obs.OpCount:
		w.n = int64(sel.Count())
		tr.SetEmitted(w.n)
	case obs.OpSum:
		if tr != nil { // the fold needs no count: only a trace pays for one
			tr.Emitted = int64(sel.Count())
		}
		w.sum = sc.views[w.attr].Sum(sel, r.threads)
	case obs.OpMinMax:
		var n int
		w.mn, w.mx, n = sc.views[w.attr].MinMax(sel)
		w.ok = n > 0
		tr.SetEmitted(int64(n))
	case obs.OpRows:
		w.rows = positions(sel)
		w.n = int64(len(w.rows))
		tr.SetEmitted(w.n)
	case obs.OpValues:
		w.cols = r.project(sc, w.attrs)
		w.n = int64(len(w.cols[0]))
	}
	return w, nil
}

// native answers a single-conjunct query through the executor's own
// terminal and records that no intermediate representation existed.
//
//holistic:noalloc
func (r *Runner) native(sc *scratch, p Predicate, w want) (want, error) {
	r.ob.Rep(sc.sp.Seq, obs.RepNative, sc.ests[0], 1)
	tr := sc.sp.Trace
	tr.SetRep(obs.RepNative, nativeReason[w.op])
	var err error
	switch w.op {
	case obs.OpSum:
		w.sum, err = r.exec.Sum(p.Attr, p.Lo, p.Hi)
		return w, err
	case obs.OpMinMax:
		w.mn, w.mx, w.ok, err = r.exec.MinMax(p.Attr, p.Lo, p.Hi)
		return w, err
	case obs.OpCount:
		var n int
		n, err = r.exec.Count(p.Attr, p.Lo, p.Hi)
		w.n = int64(n)
	}
	if err == nil { // the terminals that know their cardinality report it
		tr.SetCum(0, w.n)
		tr.SetScanned(w.n)
		tr.SetEmitted(w.n)
	}
	return w, err
}

// positions materializes the selection as ascending row ids.
//
//holistic:alloc-ok the result is the caller's
func positions(sel *column.Selection) []uint32 {
	return sel.Positions(make(column.PosList, 0, sel.Count()))
}

// project is the project operator over the surviving selection: the
// requested attributes fetched at its positions in ascending row-id
// order, each through the snapshot it was presence-filtered with.
//
//holistic:alloc-ok the result is the caller's
func (r *Runner) project(sc *scratch, attrs []string) [][]int64 {
	sc.sel.Sort()
	n := sc.sel.Count()
	out := make([][]int64, len(attrs))
	for i, a := range attrs {
		out[i] = sc.views[a].Fetch(&sc.sel, make([]int64, 0, n), r.threads)
	}
	return out
}

// Count answers "select count(*) where <conjunction>". A single
// conjunct delegates to the mode's native count; a bitmap conjunction
// finishes with a popcount — neither materializes a position list.
//
//holistic:noalloc
func (r *Runner) Count(preds []Predicate) (int, error) {
	w, err := r.run(preds, want{op: obs.OpCount}, nil)
	return int(w.n), err
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
	w, err := r.run(preds, want{op: obs.OpSum, attr: attr}, nil)
	return w.sum, err
}

// MinMax answers "select min(attr), max(attr) where <conjunction>"; ok
// is false when no tuple qualifies. Native pushdown and late fold as
// for Sum.
func (r *Runner) MinMax(attr string, preds []Predicate) (mn, mx int64, ok bool, err error) {
	if r.table.Column(attr) == nil {
		return 0, 0, false, errf("query: unknown attribute %q", attr)
	}
	w, err := r.run(preds, want{op: obs.OpMinMax, attr: attr}, nil)
	return w.mn, w.mx, w.ok, err
}

// Rows materializes the qualifying base row ids in ascending order.
// Bitmap intermediates iterate in ascending position order, so the sort
// disappears on the dense path.
func (r *Runner) Rows(preds []Predicate) ([]uint32, error) {
	w, err := r.run(preds, want{op: obs.OpRows}, nil)
	return w.rows, err
}

// Values materializes the requested attributes of the qualifying
// tuples: one aligned slice per attribute, tuples in ascending row-id
// order. This is the project operator over the conjunction's selection
// vector.
func (r *Runner) Values(attrs []string, preds []Predicate) ([][]int64, error) {
	if len(attrs) == 0 {
		return nil, errf("query: Values needs at least one attribute")
	}
	for _, a := range attrs {
		if r.table.Column(a) == nil {
			return nil, errf("query: unknown attribute %q", a)
		}
	}
	w, err := r.run(preds, want{op: obs.OpValues, attrs: attrs}, nil)
	if err == nil && w.cols == nil { // an empty range: aligned empty columns, not nil
		w.cols = make([][]int64, len(attrs))
		for i := range w.cols {
			w.cols[i] = []int64{}
		}
	}
	return w.cols, err
}

// Grouped aggregation: the query runner's face of internal/groupby.
//
// A grouped query reuses the conjunctive selection pipeline end to end —
// plan, drive, refine, presence-filter — always materializing the
// selection vector as a word-packed bitmap (the grouping accumulators
// consume positions in chunks, and the sort strategy tests cluster
// membership bit by bit), then hands the surviving rows plus the
// update-aware views of every referenced attribute to the grouped
// fused-aggregate kernels. The physical grouping strategy is chosen per
// query from domain statistics and the executor's index state:
//
//   - dense, when the composite key domain bit-packs small
//     (groupby.DenseEligible);
//   - sort (index-clustered), when the single group key passes the walk
//     rule (walkRule) grouping and joins share;
//   - hash, otherwise.
//
// Under ModeHolistic a group key enters the daemon's index space
// (admitKey) only while the walk rule could one day pass it; idle-time
// refinement then shrinks its clusters and converts hash grouping into
// sort-based grouping over time.
package query

import (
	"fmt"
	"slices"

	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/obs"
)

// walkKey is one key a plan would walk in key order: its runner, its
// attribute, the side's selection and its population n. walkRule fills
// span and ok, the key-ordered path's statistic
// (Executor.KeyOrderSpan), for the strategy audit.
type walkKey struct {
	r    *Runner
	attr string
	sel  *column.Bitmap
	n    int
	span float64
	ok   bool
}

// walkRule is the one rule grouping and joins walk their keys by, in
// three parts:
//
//   - walkable: a key-ordered walk visits every index entry while the
//     hash strategies touch only selected rows, so every key's
//     selection must cover at least a quarter of its position universe;
//   - not addressable: a plan whose accumulator addresses its keys
//     directly — a dense grouping domain, a join build side the hash
//     table addresses by key − min — beats any walk, now and after any
//     refinement;
//   - clustered: every key's key-ordered path exists and its clusters
//     span at most groupby.DefaultDenseSlots values, the accumulator
//     bound of a sort-grouping cluster and a merge-join cluster pair.
//
// The first two admit the keys into the daemon's index space
// (admitKey); all three decide the walk. addressable is asked only of
// walkable selections: the domain bounds it reads scan a column on
// first use. addressed reports that it declined the walk.
//
//holistic:noalloc
func walkRule(keys []walkKey, addressable func() bool) (walk, addressed bool, err error) {
	const keyOrderScanRatio = 4
	walk = true
	for _, k := range keys {
		walk = walk && k.n*keyOrderScanRatio >= k.sel.Len()
	}
	if walk && addressable() {
		walk, addressed = false, true
	}
	for i := 0; walk && i < len(keys); i++ {
		if err := keys[i].r.admitKey(keys[i].attr); err != nil {
			return false, false, err
		}
	}
	for i := range keys {
		k := &keys[i]
		k.span, k.ok = k.r.exec.KeyOrderSpan(k.attr)
		walk = walk && k.ok && k.span <= groupby.DefaultDenseSlots
	}
	return walk, addressed, nil
}

// admitKey enters a group or join key into the daemon's index space
// (Executor.NotePredicate); callers admit only a key the planner could
// one day walk. Besides runSel's residual conjuncts it is the one door:
// a key no plan can walk would cost a cracker copy inside the query and
// daemon cycles for nothing.
//
//holistic:noalloc
func (r *Runner) admitKey(attr string) error { return r.exec.NotePredicate(attr) }

// Grouped answers "select keys..., aggs... where <conjunction> group by
// keys..." with a freshly allocated ordered result table. Zero
// predicates group the whole relation.
func (r *Runner) Grouped(keys []string, aggs []groupby.Agg, preds []Predicate) (*groupby.Result, error) {
	res := &groupby.Result{}
	if err := r.GroupedInto(res, keys, aggs, preds); err != nil {
		return nil, err
	}
	return res, nil
}

// GroupedInto is Grouped writing into a caller-owned result, whose
// storage is reused across calls: the steady-state dense path allocates
// nothing.
func (r *Runner) GroupedInto(res *groupby.Result, keys []string, aggs []groupby.Agg, preds []Predicate) error {
	return r.grouped(res, keys, aggs, preds, nil)
}

// grouped is GroupedInto inside its bracket; own is ExplainGrouped's
// trace.
func (r *Runner) grouped(res *groupby.Result, keys []string, aggs []groupby.Agg, preds []Predicate, own *obs.QueryTrace) error {
	if err := r.checkGrouped(keys, aggs); err != nil {
		return err
	}
	sc := r.begin(obs.OpGrouped, own)
	err := r.groupedSC(sc, res, keys, aggs, preds)
	var emitted int64
	if err == nil {
		emitted = int64(res.Len())
	}
	r.finish(sc, emitted, err)
	return err
}

// checkGrouped validates a grouped query's shape before any scratch is
// pulled.
func (r *Runner) checkGrouped(keys []string, aggs []groupby.Agg) error {
	if len(keys) == 0 {
		return fmt.Errorf("query: GroupBy needs at least one attribute")
	}
	if len(aggs) == 0 {
		return fmt.Errorf("query: grouped query needs at least one aggregate")
	}
	for i, k := range keys {
		if r.table.Column(k) == nil {
			return fmt.Errorf("query: unknown attribute %q", k)
		}
		for _, prev := range keys[:i] {
			if prev == k {
				return fmt.Errorf("query: duplicate group-by attribute %q", k)
			}
		}
	}
	for _, a := range aggs {
		if a.Kind != groupby.KindCount && r.table.Column(a.Attr) == nil {
			return fmt.Errorf("query: unknown attribute %q", a.Attr)
		}
	}
	return nil
}

// noteStrategy records the executed physical strategy (grouping or
// join) with the observer and on the trace.
//
//holistic:noalloc
func (r *Runner) noteStrategy(sc *scratch, s obs.Strat, reason string) {
	r.ob.Strategy(sc.sp.Seq, s, sc.fstat[0], sc.fstat[1])
	sc.sp.Trace.SetStrategy(s, reason)
}

// groupStratOf maps the executed groupby strategy to its telemetry
// constant.
//
//holistic:noalloc
func groupStratOf(s groupby.Strategy) obs.Strat {
	switch s {
	case groupby.StrategyDense:
		return obs.StratGroupDense
	case groupby.StrategySort:
		return obs.StratGroupSort
	default:
		return obs.StratGroupHash
	}
}

func (r *Runner) groupedSC(sc *scratch, res *groupby.Result, keys []string, aggs []groupby.Agg, preds []Predicate) error {
	// The referenced attributes: group keys plus aggregate inputs, each
	// presence-filtered through the snapshot that will also feed the
	// accumulators.
	sc.extras = append(sc.extras[:0], keys...)
	for _, a := range aggs {
		if a.Kind != groupby.KindCount {
			sc.extras = appendAbsent(sc.extras, a.Attr)
		}
	}
	live, err := r.selectFor(sc, preds)
	if err != nil {
		return err
	}
	spec := r.groupSpec(sc, keys, aggs)
	if !live {
		return groupby.GroupRows(spec, nil, res)
	}

	walk := false
	if len(keys) == 1 { // the sort strategy walks one key
		key := [1]walkKey{{r: r, attr: keys[0], sel: sc.sel.Bits, n: sc.sel.Bits.Count()}}
		walk, _, err = walkRule(key[:], func() bool { return groupby.DenseEligible(spec.Keys) })
		if err != nil {
			return err
		}
		sortStats(sc, key[0])
	}
	if walk {
		walked := false
		err := groupby.GroupClusters(spec, sc.sel.Bits, func(fn func(vals []int64, rows []uint32)) {
			walked, _ = r.exec.WalkKeyOrder(keys[0], fn)
		}, res)
		if err != nil {
			return err
		}
		if walked {
			r.noteStrategy(sc, obs.StratGroupSort, "single key with refined key-ordered clusters over a dense selection")
			return nil
		}
		// The access path declined after probing (should not happen —
		// the walk rule found a path); regroup through the hash path.
	}
	if err := groupby.GroupBitmap(spec, sc.sel.Bits, res); err != nil {
		return err
	}
	reason := "no dense packing; key order not refined enough or selection too sparse"
	if res.Strategy == groupby.StrategyDense {
		reason = "composite key domain bit-packs into the dense accumulator"
	}
	r.noteStrategy(sc, groupStratOf(res.Strategy), reason)
	return nil
}

// appendAbsent appends attr to list unless it is already there.
//
//holistic:noalloc
func appendAbsent(list []string, attr string) []string {
	if !slices.Contains(list, attr) {
		list = append(list, attr)
	}
	return list
}

// selectFor is the selection prologue grouping and join sides share:
// the conjunction through the usual pipeline, materialized as a bitmap,
// when predicates exist; the presence-filtered universe otherwise.
// sc.extras ride along, so every selected row has a value in all of
// them. Either way the side's observer and the trace see one bitmap
// representation choice. live is false when the selection is provably
// empty; sc.sel and sc.views are then unspecified.
//
//holistic:noalloc
func (r *Runner) selectFor(sc *scratch, preds []Predicate) (live bool, err error) {
	if len(preds) > 0 {
		empty, err := r.planScratch(sc, preds)
		if err != nil || empty {
			return false, err
		}
		if err = r.runSel(sc, true); err != nil {
			return false, err
		}
		return sc.sel.Any(), nil
	}
	// No predicates: the whole position universe of the referenced
	// attributes, presence-filtered per attribute.
	bits := sc.sel.Bits
	sc.sel.Dense = true
	universe := 0
	for _, attr := range sc.extras {
		w, err := r.exec.View(attr)
		if err != nil {
			return false, err
		}
		sc.views[attr] = w
		universe = max(universe, w.Extent())
	}
	bits.Reset(universe)
	bits.SetRange(0, universe)
	for _, attr := range sc.extras {
		sc.views[attr].Present(&sc.sel)
	}
	r.ob.Rep(sc.sp.Seq, obs.RepBitmap, float64(universe), 0)
	if tr := sc.sp.Trace; tr != nil { // the popcount is the trace's alone
		tr.SetRep(obs.RepBitmap, "no predicates: whole-relation universe selection")
		tr.Scanned = int64(bits.Count())
	}
	return bits.Any(), nil
}

// groupSpec assembles the groupby.Spec from pooled scratch: views from
// the selection snapshot, key domains from the cached base bounds
// widened by each view's overlay.
func (r *Runner) groupSpec(sc *scratch, keys []string, aggs []groupby.Agg) *groupby.Spec {
	sc.gkeys = sc.gkeys[:0]
	for _, k := range keys {
		w := sc.views[k]
		lo, hi := w.ExtendBounds(r.table.Column(k).Bounds())
		sc.gkeys = append(sc.gkeys, groupby.Key{View: w, Lo: lo, Hi: hi})
	}
	sc.gviews = sc.gviews[:0]
	for _, a := range aggs {
		var w column.View
		if a.Kind != groupby.KindCount {
			w = sc.views[a.Attr]
		}
		sc.gviews = append(sc.gviews, w)
	}
	sc.gspec = groupby.Spec{
		Keys:     sc.gkeys,
		Aggs:     aggs,
		AggViews: sc.gviews,
		Threads:  r.threads,
	}
	return &sc.gspec
}

// sortStats captures the statistics behind the sort-vs-hash choice for
// the strategy audit event, regardless of tracing, when the key has a
// key-ordered path.
//
//holistic:noalloc
func sortStats(sc *scratch, k walkKey) {
	if !k.ok {
		return
	}
	tr := sc.sp.Trace
	sc.fstat[0], sc.fstat[1] = k.span, float64(k.n)
	tr.SetStat("key_order_span", k.span)
	tr.SetStat("cluster_slots", float64(groupby.DefaultDenseSlots))
	tr.SetStat("selected_rows", sc.fstat[1])
	tr.SetStat("position_universe", float64(k.sel.Len()))
}

// Join execution: the query runner's face of internal/join.
//
// A join runs the conjunctive selection pipeline once per side — plan,
// drive, refine, presence-filter (the join attribute and every payload
// attribute a terminal references are presence-filtered, so NULL rows
// never match) — then hands both selections to the join kernels. The
// physical strategy is chosen per query from each side's filtered
// cardinality and index statistics, mirroring the grouped-aggregation
// subsystem's strategy selection:
//
//   - merge (index-clustered), when both join keys pass the walk rule
//     (walkRule) grouping shares — no hash table over either relation;
//   - hash, otherwise, with the build side always the smaller filtered
//     cardinality: direct-addressed when the build keys are
//     join.Addressable, radix-partitioned open-addressing when not.
//
// Under ModeHolistic both join keys enter their daemons' index spaces
// (admitKey) only while the walk rule could one day pass them: both
// selections walkable, and a build side the hash table cannot address
// directly.
package query

import (
	"fmt"

	"holistic/internal/groupby"
	"holistic/internal/join"
	"holistic/internal/obs"
)

// Join is an equi-join under construction: left ⋈ right on
// leftAttr = rightAttr, each side pre-filtered by its own conjunction
// (nil or empty selects the whole relation). Terminals execute it.
type Join struct {
	left, right         *Runner
	leftAttr, rightAttr string
	leftPreds           []Predicate
	rightPreds          []Predicate

	// count/sum carry the folds of the last execution from runInto to
	// the terminal. They are per-call temporaries: a Join value is not
	// safe for concurrent terminal execution, matching the builder
	// semantics of Query.
	count, sum int64

	// trace, when preset (the Explain path), receives the execution
	// trace instead of the left runner's sink; the caller owns it.
	trace *obs.QueryTrace
}

// Join starts an equi-join between this runner's relation (the left
// side) and another runner's (the right side — possibly the same
// runner, a self-join).
func (r *Runner) Join(right *Runner, leftAttr, rightAttr string, leftPreds, rightPreds []Predicate) *Join {
	return &Join{
		left: r, right: right,
		leftAttr: leftAttr, rightAttr: rightAttr,
		leftPreds: leftPreds, rightPreds: rightPreds,
	}
}

// GroupKey is one group-by attribute of a grouped join terminal: the
// side it lives on and its name there.
type GroupKey struct {
	Side join.Side
	Attr string
}

// GroupAgg is one aggregate of a grouped join terminal; Side says
// which relation Agg.Attr comes from (ignored for count(*)).
type GroupAgg struct {
	Side join.Side
	Agg  groupby.Agg
}

// Count answers "select count(*) from L join R on ...": the number of
// matching pairs. On the hash path this folds per-slot match counts
// through pooled scratch — the steady state allocates nothing.
//
//holistic:noalloc
func (j *Join) Count() (int64, error) {
	count, _, err := j.run(join.Op{Kind: join.OpCount}, nil, nil, nil)
	return count, err
}

// Sum answers "select sum(attr)" over the matching pairs, attr taken
// from the given side (a row matching k rows of the other relation
// contributes its value k times).
func (j *Join) Sum(side join.Side, attr string) (int64, error) {
	sumAttr := [1]string{attr}
	var lExtra, rExtra []string
	if side == join.Left {
		lExtra = sumAttr[:]
	} else {
		rExtra = sumAttr[:]
	}
	_, sum, err := j.run(join.Op{Kind: join.OpSum, SumSide: side}, lExtra, rExtra, nil)
	return sum, err
}

// Pairs materializes the matching (left row id, right row id) pairs
// into freshly allocated slices, in unspecified order.
func (j *Join) Pairs() (left, right []uint32, err error) {
	p := join.GetPairs()
	defer join.PutPairs(p)
	if _, _, err := j.run(join.Op{Kind: join.OpPairs}, nil, nil, p); err != nil {
		return nil, nil, err
	}
	return append([]uint32(nil), p.Left...), append([]uint32(nil), p.Right...), nil
}

// Grouped answers "select keys..., aggs... group by keys..." over the
// matching pairs with a freshly allocated ordered result table.
func (j *Join) Grouped(keys []GroupKey, aggs []GroupAgg) (*groupby.Result, error) {
	res := &groupby.Result{}
	if err := j.GroupedInto(res, keys, aggs); err != nil {
		return nil, err
	}
	return res, nil
}

// GroupedInto is Grouped writing into a caller-owned result whose
// storage is reused across calls.
func (j *Join) GroupedInto(res *groupby.Result, keys []GroupKey, aggs []GroupAgg) error {
	if len(keys) == 0 {
		return fmt.Errorf("query: grouped join needs at least one group-by attribute")
	}
	if len(aggs) == 0 {
		return fmt.Errorf("query: grouped join needs at least one aggregate")
	}
	var extra [2][]string // indexed by join.Side
	for _, k := range keys {
		extra[k.Side] = appendAbsent(extra[k.Side], k.Attr)
	}
	for _, a := range aggs {
		if a.Agg.Kind != groupby.KindCount {
			extra[a.Side] = appendAbsent(extra[a.Side], a.Agg.Attr)
		}
	}
	p := join.GetPairs()
	defer join.PutPairs(p)
	lsc, rsc, err := j.runInto(join.Op{Kind: join.OpPairs}, extra[join.Left], extra[join.Right], p)
	if lsc != nil {
		defer j.left.putScratch(lsc)
	}
	if rsc != nil {
		defer j.right.putScratch(rsc)
	}
	if err != nil {
		return err
	}
	sideOf := func(side join.Side, attr string) (join.PairCol, [2]int64) {
		r, sc := j.left, lsc
		if side == join.Right {
			r, sc = j.right, rsc
		}
		w := sc.views[attr]
		lo, hi := w.ExtendBounds(r.table.Column(attr).Bounds())
		return join.PairCol{Side: side, View: w}, [2]int64{lo, hi}
	}
	pkeys := make([]join.PairCol, len(keys))
	bounds := make([][2]int64, len(keys))
	for i, k := range keys {
		pkeys[i], bounds[i] = sideOf(k.Side, k.Attr)
	}
	gaggs := make([]groupby.Agg, len(aggs))
	aggCols := make([]join.PairCol, len(aggs))
	for i, a := range aggs {
		gaggs[i] = a.Agg
		if a.Agg.Kind != groupby.KindCount {
			aggCols[i], _ = sideOf(a.Side, a.Agg.Attr)
		}
	}
	return join.Grouped(p, pkeys, bounds, gaggs, aggCols, res)
}

// run executes the join and releases both sides' scratch before
// returning — usable for the scalar terminals, whose results do not
// reference scratch-held views.
//
//holistic:noalloc
func (j *Join) run(op join.Op, lExtra, rExtra []string, pairs *join.Pairs) (count, sum int64, err error) {
	lsc, rsc, err := j.runInto(op, lExtra, rExtra, pairs)
	if lsc != nil {
		j.left.putScratch(lsc)
	}
	if rsc != nil {
		j.right.putScratch(rsc)
	}
	if err != nil {
		return 0, 0, err
	}
	return j.count, j.sum, nil
}

// runInto executes the join, leaving both sides' scratch (and the
// views the grouped terminal gathers through) alive for the caller to
// release.
//
//holistic:noalloc
func (j *Join) runInto(op join.Op, lExtra, rExtra []string, pairs *join.Pairs) (lsc, rsc *scratch, err error) {
	j.count, j.sum = 0, 0
	if pairs != nil {
		pairs.Left = pairs.Left[:0]
		pairs.Right = pairs.Right[:0]
	}
	if j.left.table.Column(j.leftAttr) == nil {
		return nil, nil, errf("query: unknown join attribute %q", j.leftAttr)
	}
	if j.right.table.Column(j.rightAttr) == nil {
		return nil, nil, errf("query: unknown join attribute %q", j.rightAttr)
	}
	for _, a := range lExtra {
		if j.left.table.Column(a) == nil {
			return nil, nil, errf("query: unknown attribute %q", a)
		}
	}
	for _, a := range rExtra {
		if j.right.table.Column(a) == nil {
			return nil, nil, errf("query: unknown attribute %q", a)
		}
	}

	// One bracket, opened by the left runner's observer, spans both
	// sides: the right side shares its sequence number and trace (the
	// Explain preset or the left sink's), so its stages fill the same
	// report.
	lsc = j.left.begin(obs.OpJoin, j.trace)
	rsc = j.right.getScratch()
	rsc.sp = lsc.sp
	lsc.sp.Trace.SetRowsRight(j.right.table.Rows())
	err = j.joinSC(op, lsc, rsc, lExtra, rExtra, pairs)
	lsc.sp.Trace.SetEmitted(j.count)
	sp := lsc.sp
	lsc.sp.Trace, rsc.sp.Trace = nil, nil // End emits and recycles it, or it is the caller's
	j.left.ob.End(sp, lsc.driveNs+rsc.driveNs, lsc.refineNs+rsc.refineNs, j.count, err)
	return lsc, rsc, err
}

// joinSC is the join body between begin/finish: per-side selection,
// strategy choice, kernel execution.
//
//holistic:noalloc
func (j *Join) joinSC(op join.Op, lsc, rsc *scratch, lExtra, rExtra []string, pairs *join.Pairs) error {
	lsc.sp.Trace.BeginSide("left")
	lLive, err := selectSide(j.left, lsc, j.leftPreds, j.leftAttr, lExtra)
	if err != nil {
		return err
	}
	if !lLive {
		// A provably empty left side joins nothing: skip the right
		// side's selection pass entirely.
		return nil
	}
	rsc.sp.Trace.BeginSide("right")
	rLive, err := selectSide(j.right, rsc, j.rightPreds, j.rightAttr, rExtra)
	if err != nil {
		return err
	}
	if !rLive {
		return nil
	}

	lN, rN := lsc.sel.Bits.Count(), rsc.sel.Bits.Count()
	sides := [2]walkKey{
		{r: j.left, attr: j.leftAttr, sel: lsc.sel.Bits, n: lN},
		{r: j.right, attr: j.rightAttr, sel: rsc.sel.Bits, n: rN},
	}
	walk, addressed, err := walkRule(sides[:], func() bool { return j.buildAddressable(lsc, rsc, lN, rN) })
	if err != nil {
		return err
	}
	mergeStats(lsc, sides)
	if walk {
		var walkErr error
		mkStream := func(r *Runner, sc *scratch, attr string, n int, sumSide bool) join.Stream {
			s := join.Stream{
				Walk: func(fn func(vals []int64, rows []uint32)) bool {
					ok, err := r.exec.WalkKeyOrder(attr, fn)
					if err != nil && walkErr == nil {
						walkErr = err
					}
					return err == nil && ok
				},
				Sel:   sc.sel.Bits,
				Count: n,
			}
			if sumSide {
				s.Vals = sc.views[sumAttr(op, lExtra, rExtra)]
			}
			return s
		}
		ls := mkStream(j.left, lsc, j.leftAttr, lN, op.Kind == join.OpSum && op.SumSide == join.Left)
		rs := mkStream(j.right, rsc, j.rightAttr, rN, op.Kind == join.OpSum && op.SumSide == join.Right)
		count, sum, ok := join.Merge(op, ls, rs, 0, pairs)
		if walkErr != nil {
			return walkErr
		}
		if ok {
			j.count, j.sum = count, sum
			j.left.noteStrategy(lsc, obs.StratJoinMerge, "key-ordered clusters refined below the merge span on both sides")
			return nil
		}
		// The access path declined after probing (should not happen —
		// the walk rule found a path); rejoin through the hash path.
	}

	lIn := gatherJoinSide(lsc, j.leftAttr)
	rIn := gatherJoinSide(rsc, j.rightAttr)
	if op.Kind == join.OpSum {
		attr := sumAttr(op, lExtra, rExtra)
		if op.SumSide == join.Left {
			lIn.Vals = lsc.views[attr].GatherRows(lsc.jvals[:0], lIn.Rows)
			lsc.jvals = lIn.Vals
		} else {
			rIn.Vals = rsc.views[attr].GatherRows(rsc.jvals[:0], rIn.Rows)
			rsc.jvals = rIn.Vals
		}
	}
	j.count, j.sum = join.Hash(op, lIn, rIn, j.left.threads, pairs)
	reason := "no refined key-ordered path on both sides, or selections too sparse to walk the indexes"
	if addressed {
		reason = "build keys address the hash table directly"
	}
	j.left.noteStrategy(lsc, obs.StratJoinHash, reason)
	return nil
}

// buildAddressable reports whether join.Hash will address its build
// side directly: the side with fewer selected rows (the left on a tie,
// as Hash picks it), whose key domain — the base bounds widened by the
// view's overlay — bounds the span of the keys it gathers, so the plan
// never counts on a direct table buildDirect would refuse.
//
//holistic:noalloc
func (j *Join) buildAddressable(lsc, rsc *scratch, lN, rN int) bool {
	r, sc, attr, n := j.left, lsc, j.leftAttr, lN
	if rN < lN {
		r, sc, attr, n = j.right, rsc, j.rightAttr, rN
	}
	lo, hi := sc.views[attr].ExtendBounds(r.table.Column(attr).Bounds())
	return join.Addressable(uint64(hi)-uint64(lo), n)
}

// sumAttr recovers the OpSum attribute from the extras the Sum
// terminal threaded through (exactly one side carries it).
//
//holistic:noalloc
func sumAttr(op join.Op, lExtra, rExtra []string) string {
	if op.SumSide == join.Left {
		return lExtra[0]
	}
	return rExtra[0]
}

// selectSide runs one side's pre-join selection (selectFor) with the
// join attribute and the side's payload attributes as its extras.
//
//holistic:noalloc
func selectSide(r *Runner, sc *scratch, preds []Predicate, joinAttr string, extra []string) (live bool, err error) {
	sc.extras = append(sc.extras[:0], joinAttr)
	for _, a := range extra {
		sc.extras = appendAbsent(sc.extras, a)
	}
	return r.selectFor(sc, preds)
}

// gatherJoinSide materializes one side's selected join keys and rows
// into the side's pooled scratch — the hash join's input form.
//
//holistic:noalloc
func gatherJoinSide(sc *scratch, attr string) join.Input {
	rows := sc.sel.Positions(sc.jrows[:0])
	sc.jrows = rows
	keys := sc.views[attr].GatherRows(sc.jkeys[:0], rows)
	sc.jkeys = keys
	return join.Input{Keys: keys, Rows: rows}
}

// mergeStats captures the statistics behind the merge-vs-hash choice
// for the strategy audit event, regardless of tracing: each side's
// key-ordered span where it has a path, the bound and both populations.
//
//holistic:noalloc
func mergeStats(lsc *scratch, sides [2]walkKey) {
	tr := lsc.sp.Trace
	if l := sides[0]; l.ok {
		lsc.fstat[0] = l.span
		tr.SetStat("left_key_order_span", l.span)
	}
	if r := sides[1]; r.ok {
		lsc.fstat[1] = r.span
		tr.SetStat("right_key_order_span", r.span)
	}
	tr.SetStat("merge_span_bound", float64(groupby.DefaultDenseSlots))
	tr.SetStat("left_selected_rows", float64(sides[0].n))
	tr.SetStat("right_selected_rows", float64(sides[1].n))
}

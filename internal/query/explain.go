// Explain: run a query with a caller-owned trace attached, then fill
// the per-conjunct standalone cardinalities with an O(N) oracle probe
// so the trace reports estimated versus actual selectivity. Explain is
// a diagnostic path — it allocates freely and is never pooled.

package query

import (
	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/obs"
)

// explainRun executes body inside the same begin/finish bracket as the
// terminals, with a fresh caller-owned trace forced on: the returned
// trace belongs to the caller and is neither handed to the sink nor
// recycled into the trace pool.
func (r *Runner) explainRun(op obs.Op, body func(sc *scratch) (int64, error)) (*obs.QueryTrace, error) {
	tr := obs.NewTrace()
	sc := r.begin(op, tr)
	result, err := body(sc)
	r.finish(sc, result, err)
	if err == nil {
		r.fillActual(tr, "")
	}
	return tr, err
}

// fillActual measures the standalone cardinality of every conjunct
// recorded under side ("" for single-relation queries) by probing the
// attribute's update-aware view over the whole relation — the oracle
// the estimated selectivities are compared against. O(N) per conjunct;
// Explain-only.
func (r *Runner) fillActual(tr *obs.QueryTrace, side string) {
	for i := range tr.Conjuncts {
		c := &tr.Conjuncts[i]
		if c.Side != side {
			continue
		}
		w, err := r.exec.View(c.Attr)
		if err != nil {
			continue
		}
		var n int64
		ext := w.Extent()
		for p := 0; p < ext; p++ {
			if v, ok := w.At(column.Pos(p)); ok && v >= c.Lo && v < c.Hi {
				n++
			}
		}
		c.ActualRows = n
	}
}

// ExplainCount runs Count with tracing forced on and returns the
// completed trace alongside the count.
func (r *Runner) ExplainCount(preds []Predicate) (*obs.QueryTrace, int, error) {
	var n int
	tr, err := r.explainRun(obs.OpCount, func(sc *scratch) (int64, error) {
		var e error
		n, e = r.countSC(sc, preds)
		return int64(n), e
	})
	return tr, n, err
}

// ExplainSum runs Sum with tracing forced on.
func (r *Runner) ExplainSum(attr string, preds []Predicate) (*obs.QueryTrace, int64, error) {
	if r.table.Column(attr) == nil {
		return nil, 0, errf("query: unknown attribute %q", attr)
	}
	var s int64
	tr, err := r.explainRun(obs.OpSum, func(sc *scratch) (int64, error) {
		var e error
		s, e = r.sumSC(sc, attr, preds)
		return s, e
	})
	return tr, s, err
}

// ExplainGrouped runs a grouped aggregation into res with tracing
// forced on, reporting the grouping strategy chosen and why.
func (r *Runner) ExplainGrouped(res *groupby.Result, keys []string, aggs []groupby.Agg, preds []Predicate) (*obs.QueryTrace, error) {
	if err := r.checkGrouped(keys, aggs); err != nil {
		return nil, err
	}
	return r.explainRun(obs.OpGrouped, func(sc *scratch) (int64, error) {
		if err := r.groupedSC(sc, res, keys, aggs, preds); err != nil {
			return 0, err
		}
		return int64(res.Len()), nil
	})
}

// Explain runs the join as Count with tracing forced on and returns
// the completed trace: conjuncts carry their side, and the strategy
// fields report hash versus index-clustered merge and why.
func (j *Join) Explain() (*obs.QueryTrace, int64, error) {
	tr := obs.NewTrace()
	j.SetTrace(tr)
	defer j.SetTrace(nil)
	n, err := j.Count()
	if err == nil {
		j.left.fillActual(tr, "left")
		j.right.fillActual(tr, "right")
	}
	return tr, n, err
}

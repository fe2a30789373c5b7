// Explain: run a query through the same body as its terminal with a
// fresh caller-owned trace forced on — neither handed to the sink nor
// recycled into the trace pool — then fill the per-conjunct standalone
// cardinalities with an O(N) oracle probe so the trace reports estimated
// versus actual selectivity. Explain is a diagnostic path — it allocates
// freely.

package query

import (
	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/obs"
)

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
	tr := obs.NewTrace()
	w, err := r.run(preds, want{op: obs.OpCount}, tr)
	if err == nil {
		r.fillActual(tr, "")
	}
	return tr, int(w.n), err
}

// ExplainGrouped runs a grouped aggregation into res with tracing
// forced on, reporting the grouping strategy chosen and why.
func (r *Runner) ExplainGrouped(res *groupby.Result, keys []string, aggs []groupby.Agg, preds []Predicate) (*obs.QueryTrace, error) {
	tr := obs.NewTrace()
	err := r.grouped(res, keys, aggs, preds, tr)
	if err == nil {
		r.fillActual(tr, "")
	}
	return tr, err
}

// Explain runs the join as Count with tracing forced on and returns
// the completed trace: conjuncts carry their side, and the strategy
// fields report hash versus index-clustered merge and why.
func (j *Join) Explain() (*obs.QueryTrace, int64, error) {
	tr := obs.NewTrace()
	j.trace = tr
	n, err := j.Count()
	j.trace = nil
	if err == nil {
		j.left.fillActual(tr, "left")
		j.right.fillActual(tr, "right")
	}
	return tr, n, err
}

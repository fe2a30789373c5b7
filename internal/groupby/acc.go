package groupby

import (
	"holistic/internal/column"
)

// Acc is the slice-fed feeder: callers that already hold the group-key
// and aggregate attributes as position-aligned slices — sideways-cracked
// payload segments, pre-sorted projection windows, gathered join pairs —
// stream them through Segment and collect the ordered result with
// Finish. The core reads the caller's slices in place.
type Acc struct {
	spec Spec
	st   *runState
	err  error
}

// NewAcc builds an accumulator over the given key domains (Key.View is
// ignored — the keys arrive as slices) and fused aggregates. Aggregate
// views are likewise unused.
//
//holistic:alloc-ok builds the accumulator and its pooled run state
func NewAcc(keys []Key, aggs []Agg) (*Acc, error) {
	// The length of the stream is unknown up front, so the fill rule of
	// the dense/hash crossover cannot apply: dense whenever the domain
	// packs.
	a := &Acc{spec: Spec{Keys: keys, Aggs: aggs, AggViews: make([]column.View, len(aggs)), stream: true}}
	if err := a.spec.validate(); err != nil {
		return nil, err
	}
	st := getRunState()
	if err := makePacking(&st.pk, keys); err != nil {
		putRunState(st)
		return nil, err
	}
	st.start(&a.spec, &st.pk, chooseDense(&a.spec, &st.pk, 0))
	a.st = st
	return a, nil
}

// Segment folds one position-aligned block into the accumulator:
// keyCols[i] holds key i's values, aggCols[j] the j-th aggregate's
// values (ignored — may be nil — for count(*)). All non-nil slices must
// have equal length. Segments arrive in any order.
//
//holistic:noalloc
func (a *Acc) Segment(keyCols [][]int64, aggCols [][]int64) {
	if a.err != nil {
		return
	}
	if len(keyCols) != len(a.spec.Keys) || len(aggCols) != len(a.spec.Aggs) {
		a.err = errf("groupby: Segment got %d key / %d agg columns, want %d / %d",
			len(keyCols), len(aggCols), len(a.spec.Keys), len(a.spec.Aggs))
		return
	}
	c := chunk{keys: keyCols, aggs: aggCols}
	for n := len(keyCols[0]); c.off < n; c.off += chunkSize {
		c.n = min(chunkSize, n-c.off)
		a.st.fold(&a.spec, &a.st.pk, &c)
	}
}

// Finish emits the ordered result into res and releases the pooled
// state; the Acc must not be used afterwards.
//
//holistic:noalloc
func (a *Acc) Finish(res *Result) error {
	defer func() {
		putRunState(a.st)
		a.st = nil
	}()
	if a.err != nil {
		return a.err
	}
	res.reset(len(a.spec.Keys), len(a.spec.Aggs))
	res.Strategy = a.st.strategy()
	a.st.emit(&a.spec, &a.st.pk, res)
	return nil
}

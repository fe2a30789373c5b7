package groupby

import (
	"holistic/internal/column"
)

// clusterWalk is the per-call state of GroupClusters. It lives in the
// pooled run state, and the callback handed to the index walk is a
// method value built once per state, so a walk allocates nothing.
type clusterWalk struct {
	fn   func(vals []int64, rows []uint32)
	bm   *column.Bitmap
	res  *Result
	spec Spec       // the caller's plan, re-keyed per cluster
	key  [1]Key     // backs spec.Keys: the cluster's observed key span
	cols [1][]int64 // backs chunk.keys: the cluster's selected key values
}

// GroupClusters executes the fused plan with sort-based (index-
// clustered) grouping: walk streams the single group-key attribute in
// ascending key-cluster order (Executor.WalkKeyOrder's contract —
// cluster value sets disjoint and ascending), each cluster runs through
// the core as an execution of its own over the key span its selected
// rows actually cover, and groups append to res already in key order.
// No global table exists at any point, and a cluster pays for its own
// span, never for DefaultDenseSlots: the dense/hash crossover applies
// per cluster, so a refined cluster — post-refinement, every cluster —
// folds into a small dense array and a wide or sparse one into a small
// hash table.
//
// bm is the selection vector over base row ids; rows outside it are
// skipped. The key values come from the index stream itself (the walk
// reflects the attribute's current, merged state), while the aggregate
// attributes are gathered through their update-aware views.
//
//holistic:noalloc
func GroupClusters(spec *Spec, bm *column.Bitmap, walk func(fn func(vals []int64, rows []uint32)), res *Result) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if len(spec.Keys) != 1 {
		return errf("groupby: sort-based grouping needs exactly one group-by attribute, have %d", len(spec.Keys))
	}
	if bm == nil {
		return errf("groupby: sort-based grouping needs a bitmap selection vector")
	}
	res.reset(1, len(spec.Aggs))
	res.Strategy = StrategySort
	if !bm.Any() {
		return nil
	}
	st := getRunState()
	defer putRunState(st)
	cw := &st.walk
	if cw.fn == nil {
		cw.fn = st.cluster
	}
	cw.bm, cw.res, cw.spec = bm, res, *spec
	cw.spec.Keys = cw.key[:]
	walk(cw.fn)
	*cw = clusterWalk{fn: cw.fn} // drop the caller's references before pooling
	return nil
}

// cluster is the cluster feeder: one key cluster of the walk, folded
// and emitted as its own execution.
//
//holistic:noalloc
func (st *runState) cluster(vals []int64, rows []uint32) {
	cw := &st.walk
	// Pass 1: the key span and population of the selected rows decide
	// the cluster's packing and accumulator set.
	var mn, mx int64
	cnt := 0
	for i, row := range rows {
		if !cw.bm.Test(row) {
			continue
		}
		v := vals[i]
		if cnt == 0 || v < mn {
			mn = v
		}
		if cnt == 0 || v > mx {
			mx = v
		}
		cnt++
	}
	if cnt == 0 {
		return
	}
	cw.key[0] = Key{Lo: mn, Hi: mx}
	_ = makePacking(&st.pk, cw.key[:]) // mn <= mx: cannot fail
	st.start(&cw.spec, &st.pk, chooseDense(&st.pk, cnt))
	// Pass 2: compact the selected (value, row) pairs into the chunk
	// buffers; the keys are the walk's values, the aggregates are
	// gathered at the rows.
	c := chunk{keys: cw.cols[:]}
	for i := 0; i < len(rows); {
		pos, keys := st.posbuf[:0], st.keybuf[:0]
		for ; i < len(rows) && len(pos) < chunkSize; i++ {
			if cw.bm.Test(rows[i]) {
				pos = append(pos, rows[i])
				keys = append(keys, vals[i])
			}
		}
		c.n, c.pos, cw.cols[0] = len(pos), pos, keys
		st.fold(&cw.spec, &st.pk, &c)
	}
	st.emit(&cw.spec, &st.pk, cw.res)
}

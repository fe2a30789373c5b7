package groupby

import (
	"math"
	"slices"

	"holistic/internal/column"
)

// aggSrc is the per-aggregate fetch path of the cluster walk: the bare
// base array when the view is plain (the common, fast case), the
// overlay-aware view otherwise.
type aggSrc struct {
	kind Kind
	base []int64
	view column.View
}

//holistic:noalloc
func (s *aggSrc) at(row uint32) (int64, bool) {
	if s.base != nil {
		return s.base[row], true
	}
	return s.view.At(row)
}

// clusterState is the pooled local accumulator of the sort strategy:
// dense arrays sized to the per-cluster bound, reset via a touched-slot
// list so a walk over many small clusters never pays a full clear.
type clusterState struct {
	counts  []int64
	accs    [][]int64
	touched []int32
	srcs    []aggSrc
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *runState) clusterFor(spec *Spec, slots int) *clusterState {
	cs := st.cluster
	if cs == nil {
		cs = &clusterState{}
		st.cluster = cs
	}
	cs.counts = resizeZero(cs.counts, slots)
	for len(cs.accs) < len(spec.Aggs) {
		cs.accs = append(cs.accs, nil)
	}
	cs.accs = cs.accs[:len(spec.Aggs)]
	for a, agg := range spec.Aggs {
		if agg.Kind == KindCount {
			cs.accs[a] = cs.accs[a][:0]
			continue
		}
		if cap(cs.accs[a]) < slots {
			cs.accs[a] = make([]int64, slots)
		}
		cs.accs[a] = cs.accs[a][:slots]
	}
	cs.touched = cs.touched[:0]
	cs.srcs = cs.srcs[:0]
	for a, agg := range spec.Aggs {
		src := aggSrc{kind: agg.Kind}
		if agg.Kind != KindCount {
			if v := spec.AggViews[a]; v.Plain() {
				src.base = v.Base
			} else {
				src.view = v
			}
		}
		cs.srcs = append(cs.srcs, src)
	}
	return cs
}

// identityPk treats a raw int64 key as its own 64-bit composite, so the
// per-cluster hash fallback needs no domain knowledge at all.
var identityPk = packing{
	los:    []int64{0},
	spans:  []uint64{math.MaxUint64},
	shifts: []uint{0},
	bits:   64,
}

// GroupClusters executes the fused plan with sort-based (index-
// clustered) grouping: walk streams the single group-key attribute in
// ascending key-cluster order (Executor.WalkKeyOrder's contract —
// cluster value sets disjoint and ascending), each cluster is
// aggregated locally, and groups append to res already in key order.
// No global hash table exists at any point; a cluster whose observed
// key span fits Spec.ClusterSlots uses a dense local accumulator
// (post-refinement clusters always do — that is the holistic payoff), a
// wider one falls back to a small per-cluster hash.
//
// bm is the selection vector over base row ids; rows outside it are
// skipped. The key values come from the index stream itself (the walk
// reflects the attribute's current, merged state), while the aggregate
// attributes are fetched through their update-aware views.
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
	slots := spec.clusterSlots()
	cs := st.clusterFor(spec, slots)
	var h *hashState
	walk(func(vals []int64, rows []uint32) {
		// Pass 1: bounds and population of the selected rows.
		var mn, mx int64
		cnt := 0
		for i, row := range rows {
			if !bm.Test(row) {
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
		if span := uint64(mx-mn) + 1; span <= uint64(slots) {
			clusterDense(cs, bm, vals, rows, mn, res)
			return
		}
		// Unrefined cluster: a local hash, emptied after every cluster.
		if h == nil {
			h = st.hashFor(spec)
		} else {
			h.reset(spec)
		}
		clusterHash(spec, cs, h, bm, vals, rows, res)
	})
	return nil
}

// clusterDense aggregates one cluster through the dense local
// accumulator (slot = key - mn) and emits its groups in key order.
//
//holistic:noalloc
func clusterDense(cs *clusterState, bm *column.Bitmap, vals []int64, rows []uint32, mn int64, res *Result) {
	for i, row := range rows {
		if !bm.Test(row) {
			continue
		}
		slot := int32(vals[i] - mn)
		if cs.counts[slot] == 0 {
			cs.touched = append(cs.touched, slot)
			for a := range cs.srcs {
				switch cs.srcs[a].kind {
				case KindSum:
					cs.accs[a][slot] = 0
				case KindMin:
					cs.accs[a][slot] = math.MaxInt64
				case KindMax:
					cs.accs[a][slot] = math.MinInt64
				}
			}
		}
		cs.counts[slot]++
		for a := range cs.srcs {
			src := &cs.srcs[a]
			if src.kind == KindCount {
				continue
			}
			v, ok := src.at(row)
			if !ok {
				continue
			}
			switch src.kind {
			case KindSum:
				cs.accs[a][slot] += v
			case KindMin:
				if v < cs.accs[a][slot] {
					cs.accs[a][slot] = v
				}
			case KindMax:
				if v > cs.accs[a][slot] {
					cs.accs[a][slot] = v
				}
			}
		}
	}
	slices.Sort(cs.touched)
	for _, slot := range cs.touched {
		res.Keys[0] = append(res.Keys[0], mn+int64(slot))
		for a := range cs.srcs {
			if cs.srcs[a].kind == KindCount {
				res.Aggs[a] = append(res.Aggs[a], cs.counts[slot])
			} else {
				res.Aggs[a] = append(res.Aggs[a], cs.accs[a][slot])
			}
		}
		cs.counts[slot] = 0
	}
	cs.touched = cs.touched[:0]
}

// clusterHash aggregates one over-wide cluster through a local hash
// table; ordering within the cluster comes from the hash emit sort, and
// cluster disjointness keeps the global order intact.
//
//holistic:noalloc
func clusterHash(spec *Spec, cs *clusterState, h *hashState, bm *column.Bitmap, vals []int64, rows []uint32, res *Result) {
	for i, row := range rows {
		if !bm.Test(row) {
			continue
		}
		g := h.groupOf(spec, &identityPk, uint64(vals[i]))
		h.counts[g]++
		for a := range cs.srcs {
			src := &cs.srcs[a]
			if src.kind == KindCount {
				continue
			}
			v, ok := src.at(row)
			if !ok {
				continue
			}
			switch src.kind {
			case KindSum:
				h.accs[a][g] += v
			case KindMin:
				if v < h.accs[a][g] {
					h.accs[a][g] = v
				}
			case KindMax:
				if v > h.accs[a][g] {
					h.accs[a][g] = v
				}
			}
		}
	}
	emitHash(spec, h, res)
}

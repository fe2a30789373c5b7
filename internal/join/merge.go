package join

import (
	"sync"

	"holistic/internal/groupby"
)

// mergeState is the pooled per-execution scratch of the index-clustered
// merge join: the buffered build-side clusters, the filtered probe
// cluster, and the per-pass accumulators.
type mergeState struct {
	// Buffered build side, selected rows only, in cluster order: cluster
	// c spans [cstart[c], cstart[c+1]) of the flat arrays and covers the
	// observed value range [cmin[c], cmax[c]]. brows is filled only when
	// pairs are materialized, bvals only when the sum folds over the
	// build side.
	bkeys  []int64
	brows  []uint32
	bvals  []int64
	cstart []int32
	cmin   []int64
	cmax   []int64
	next   []int32 // duplicate chain per buffered build entry (OpPairs)

	// Current probe cluster, selected rows only (pr only for OpPairs,
	// pv only when the sum folds over the probe side).
	pk []int64
	pr []uint32
	pv []int64

	// Dense per-probe-cluster accumulator (slot = key - cluster
	// minimum), reset through the touched list so small refined
	// clusters never pay a full clear. cnt == 0 gates occupancy; head
	// is maintained only for OpPairs.
	head    []int32
	cnt     []int32
	sum     []int64
	touched []int32

	// Wide-pass fallback: a small open-addressing table keyed by the
	// exact value, scoped to one build cluster (unrefined indexes only).
	wkey  []int64
	whead []int32
	wcnt  []int32
	wsum  []int64
}

var mergeStatePool = sync.Pool{New: func() any { return new(mergeState) }}

// Merge executes the index-clustered merge join over two key-ordered
// cluster streams. ok is false — and the fold undefined — when either
// side has no key-ordered access path (the caller falls back to Hash).
// pairs is required only for OpPairs. spanLimit bounds the dense
// accumulator (<= 0 keeps groupby.DefaultDenseSlots).
//
// The build side (the smaller selected cardinality) is buffered once;
// as the probe side walks, only build clusters whose value ranges
// overlap the current probe cluster are touched — the cluster-
// intersection rule. A probe cluster whose observed span fits the
// dense accumulator (after refinement they all do) joins in one pass:
// the overlapping build entries scatter into value-indexed slots and
// the probe entries fold against them. Wider probe clusters fall back
// to a per-build-cluster pass with a pair-scoped hash table.
//
//holistic:noalloc
func Merge(op Op, left, right Stream, spanLimit int, pairs *Pairs) (count, sum int64, ok bool) {
	if pairs != nil {
		pairs.reset()
	}
	if spanLimit <= 0 {
		spanLimit = groupby.DefaultDenseSlots
	}
	build, probe := &left, &right
	swapped := false
	if right.Count < left.Count {
		build, probe = &right, &left
		swapped = true
	}
	sumOnBuild := op.Kind == OpSum && ((op.SumSide == Left) != swapped)
	sumOnProbe := op.Kind == OpSum && !sumOnBuild
	needRows := pairs != nil
	st := mergeStatePool.Get().(*mergeState)
	defer mergeStatePool.Put(st)

	if !st.bufferBuild(build, sumOnBuild, needRows) {
		return 0, 0, false
	}
	nc := len(st.cmin)
	cursor := 0
	walked := probe.Walk(func(vals []int64, rows []uint32) {
		if cursor >= nc {
			return
		}
		// Filter the probe cluster through its selection and find its
		// observed range.
		st.pk = st.pk[:0]
		st.pr = st.pr[:0]
		st.pv = st.pv[:0]
		var pmin, pmax int64
		for i, row := range rows {
			if probe.Sel != nil && !probe.Sel.Test(row) {
				continue
			}
			v := vals[i]
			if len(st.pk) == 0 || v < pmin {
				pmin = v
			}
			if len(st.pk) == 0 || v > pmax {
				pmax = v
			}
			st.pk = append(st.pk, v)
			if needRows {
				st.pr = append(st.pr, row)
			}
			if sumOnProbe {
				pval, _ := probe.Vals.At(row)
				st.pv = append(st.pv, pval)
			}
		}
		if len(st.pk) == 0 {
			return
		}
		// Build clusters entirely below this probe cluster are dead for
		// every later one too (cluster value sets ascend), so the cursor
		// only moves forward.
		for cursor < nc && st.cmax[cursor] < pmin {
			cursor++
		}
		kEnd := cursor
		for kEnd < nc && st.cmin[kEnd] <= pmax {
			kEnd++
		}
		if kEnd == cursor {
			return
		}
		if span := uint64(pmax-pmin) + 1; span <= uint64(spanLimit) {
			c, s := st.joinSpan(op, cursor, kEnd, pmin, pmax, swapped, sumOnBuild, pairs)
			count += c
			sum += s
			return
		}
		for k := cursor; k < kEnd; k++ {
			c, s := st.joinWide(op, k, pmin, pmax, swapped, sumOnBuild, pairs)
			count += c
			sum += s
		}
	})
	if !walked {
		return 0, 0, false
	}
	return count, sum, true
}

// bufferBuild copies the build side's selected rows into flat cluster
// storage (walk callbacks must not retain the streamed slices); false
// when the side has no key-ordered access path.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (st *mergeState) bufferBuild(b *Stream, sumOnBuild, needRows bool) bool {
	st.bkeys = st.bkeys[:0]
	st.brows = st.brows[:0]
	st.bvals = st.bvals[:0]
	st.cstart = st.cstart[:0]
	st.cmin = st.cmin[:0]
	st.cmax = st.cmax[:0]
	walked := b.Walk(func(vals []int64, rows []uint32) {
		start := len(st.bkeys)
		var mn, mx int64
		for i, row := range rows {
			if b.Sel != nil && !b.Sel.Test(row) {
				continue
			}
			v := vals[i]
			if len(st.bkeys) == start || v < mn {
				mn = v
			}
			if len(st.bkeys) == start || v > mx {
				mx = v
			}
			st.bkeys = append(st.bkeys, v)
			if needRows {
				st.brows = append(st.brows, row)
			}
			if sumOnBuild {
				bval, _ := b.Vals.At(row)
				st.bvals = append(st.bvals, bval)
			}
		}
		if len(st.bkeys) == start {
			return
		}
		st.cstart = append(st.cstart, int32(start))
		st.cmin = append(st.cmin, mn)
		st.cmax = append(st.cmax, mx)
	})
	if !walked {
		return false
	}
	st.cstart = append(st.cstart, int32(len(st.bkeys)))
	if needRows {
		st.next = grow32(st.next, len(st.bkeys))
	}
	return true
}

// joinSpan joins build clusters [kLo, kHi) against the current probe
// cluster through one dense accumulator covering the probe cluster's
// value range [lo, hi]: every overlapping build entry scatters once,
// every probe entry folds once.
//
//holistic:noalloc
func (st *mergeState) joinSpan(op Op, kLo, kHi int, lo, hi int64, swapped, sumOnBuild bool, pairs *Pairs) (count, sum int64) {
	span := int(hi-lo) + 1
	st.head = grow32(st.head, span)
	st.cnt = grow32(st.cnt, span)
	st.sum = grow64(st.sum, span)
	head, cnt, ssum := st.head, st.cnt, st.sum
	needChain := pairs != nil
	for e, e1 := int(st.cstart[kLo]), int(st.cstart[kHi]); e < e1; e++ {
		v := st.bkeys[e]
		if v < lo || v > hi {
			continue
		}
		slot := int32(v - lo)
		if cnt[slot] == 0 {
			st.touched = append(st.touched, slot)
			if sumOnBuild {
				ssum[slot] = 0
			}
			if needChain {
				head[slot] = 0
			}
		}
		cnt[slot]++
		if sumOnBuild {
			ssum[slot] += st.bvals[e]
		}
		if needChain {
			st.next[e] = head[slot]
			head[slot] = int32(e) + 1
		}
	}
	if len(st.touched) == 0 {
		return 0, 0
	}
	for j, v := range st.pk {
		// v is inside [lo, hi] by construction (the probe cluster's own
		// observed range).
		slot := int32(v - lo)
		c := cnt[slot]
		if c == 0 {
			continue
		}
		count += int64(c)
		if op.Kind == OpSum {
			if sumOnBuild {
				sum += ssum[slot]
			} else {
				sum += int64(c) * st.pv[j]
			}
		}
		if needChain {
			st.emitChain(head[slot], st.pr[j], swapped, pairs)
		}
	}
	for _, slot := range st.touched {
		cnt[slot] = 0
	}
	st.touched = st.touched[:0]
	return count, sum
}

// joinWide joins one build cluster against the current probe cluster
// when the probe cluster's span exceeds the dense bound (an unrefined
// index): a small open-addressing table keyed by the exact value,
// scoped to the build cluster's entries inside the range overlap.
//
//holistic:noalloc
func (st *mergeState) joinWide(op Op, k int, pmin, pmax int64, swapped, sumOnBuild bool, pairs *Pairs) (count, sum int64) {
	lo, hi := st.cmin[k], st.cmax[k]
	if pmin > lo {
		lo = pmin
	}
	if pmax < hi {
		hi = pmax
	}
	segLo, segHi := int(st.cstart[k]), int(st.cstart[k+1])
	slots := max(arena(segHi-segLo), 8)
	st.wkey = grow64(st.wkey, slots)
	st.whead = grow32(st.whead, slots)
	st.wcnt = grow32(st.wcnt, slots)
	st.wsum = grow64(st.wsum, slots)
	wkey, whead := st.wkey, st.whead
	wcnt, wsum := st.wcnt, st.wsum
	clear(whead)
	mask := uint64(slots - 1)
	needChain := pairs != nil
	probeSlot := func(v int64) uint64 {
		s := splitmix64(uint64(v)) & mask
		for whead[s] != 0 && wkey[s] != v {
			s = (s + 1) & mask
		}
		return s
	}
	for e := segLo; e < segHi; e++ {
		v := st.bkeys[e]
		if v < lo || v > hi {
			continue
		}
		s := probeSlot(v)
		if whead[s] == 0 {
			wkey[s] = v
			wcnt[s] = 0
			if sumOnBuild {
				wsum[s] = 0
			}
		}
		wcnt[s]++
		if sumOnBuild {
			wsum[s] += st.bvals[e]
		}
		if needChain {
			st.next[e] = whead[s] // previous head (0 = chain end)
		}
		whead[s] = int32(e) + 1
	}
	for j, v := range st.pk {
		if v < lo || v > hi {
			continue
		}
		s := probeSlot(v)
		if whead[s] == 0 {
			continue
		}
		c := wcnt[s]
		count += int64(c)
		if op.Kind == OpSum {
			if sumOnBuild {
				sum += wsum[s]
			} else {
				sum += int64(c) * st.pv[j]
			}
		}
		if needChain {
			st.emitChain(whead[s], st.pr[j], swapped, pairs)
		}
	}
	return count, sum
}

// emitChain appends one probe row's matched build chain to pairs.
//
//holistic:noalloc
func (st *mergeState) emitChain(head int32, probeRow uint32, swapped bool, pairs *Pairs) {
	bl, pl := &pairs.Left, &pairs.Right
	if swapped {
		bl, pl = &pairs.Right, &pairs.Left
	}
	for e := head; e != 0; e = st.next[e-1] {
		*bl = append(*bl, st.brows[e-1])
		*pl = append(*pl, probeRow)
	}
}

package join

import (
	"sync"

	"holistic/internal/column"
)

const (
	// minPartitionKeys is the build cardinality below which the hash
	// join keeps a single partition: one table of a few thousand keys is
	// already cache-resident, so radix scatter would be pure overhead.
	minPartitionKeys = 1 << 14
	// targetPartKeys is the per-partition build cardinality the radix
	// split aims for: ~4096 keys keep a partition's slot region inside
	// the L2 cache during both build and probe.
	targetPartKeys = 1 << 12
	// maxPartitionBits caps the radix width (64 partitions).
	maxPartitionBits = 6
	// minParallelJoin is the side cardinality below which the kernels
	// stay sequential: goroutine fan-out costs allocations and the
	// steady-state count path promises zero.
	minParallelJoin = 1 << 15
)

// hashState is the pooled per-execution scratch of the hash join: the
// build side, its slot arena — direct-addressed, or radix-partitioned
// and hashed — and the per-worker partials, all recycled so
// steady-state joins allocate nothing.
type hashState struct {
	bits   int
	hist   []int32 // per-partition build counts
	starts []int32 // partition entry offsets (len nparts+1)
	cur    []int32 // scatter cursors

	// Scattered build side: entry e of partition p lives at
	// [starts[p], starts[p+1]) in these aligned arrays.
	bkeys []int64
	brows []uint32
	bvals []int64
	next  []int32 // duplicate chain per entry (1-based entry index, 0 = end)

	// Slot arena: partition p's open-addressing region is
	// [slotOff[p], slotOff[p+1]), a power of two of at least twice the
	// partition's entries (load factor <= 1/2). shead == 0 marks an
	// empty slot; skey needs no clearing because shead gates it.
	slotOff []int32
	skey    []int64
	shead   []int32 // 1-based entry index of the key's newest duplicate
	scnt    []int32 // duplicates of the key
	ssum    []int64 // payload sum over the duplicates (OpSum on build)

	// Direct addressing (buildDirect): slot s of shead, scnt and ssum is
	// key dmin+s itself; skey, the partition arrays and the entry scatter
	// go unused.
	direct bool
	dmin   int64

	// Per-worker probe partials.
	wcount []int64
	wsum   []int64
}

var hashStatePool = sync.Pool{New: func() any { return new(hashState) }}

//holistic:alloc-ok pool warm-up allocates the recycled object
func getHashState() *hashState { return hashStatePool.Get().(*hashState) }

//holistic:noalloc
func putHashState(st *hashState) { hashStatePool.Put(st) }

//holistic:alloc-ok grows the retained buffer on first use or resize
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

//holistic:alloc-ok grows the retained buffer on first use or resize
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// partitionBits picks the radix width from the build cardinality.
//
//holistic:noalloc
func partitionBits(n int) int {
	if n < minPartitionKeys {
		return 0
	}
	bits := 0
	for (n>>bits) > targetPartKeys && bits < maxPartitionBits {
		bits++
	}
	return bits
}

// Hash executes the hash join: build over the smaller side, probe with
// the larger, fold the terminal. The table is direct-addressed when the
// build keys are dense enough (buildDirect), radix-partitioned and
// hashed otherwise. pairs is required (and filled) only for OpPairs;
// count reports the number of matching pairs for every op, and sum the
// OpSum fold.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func Hash(op Op, left, right Input, threads int, pairs *Pairs) (count, sum int64) {
	if pairs != nil {
		pairs.reset()
	}
	if len(left.Keys) == 0 || len(right.Keys) == 0 {
		return 0, 0
	}
	build, probe := left, right
	swapped := false
	if len(right.Keys) < len(left.Keys) {
		build, probe = right, left
		swapped = true
	}
	// Does the build side carry the OpSum payload?
	sumOnBuild := op.Kind == OpSum && ((op.SumSide == Left) != swapped)
	st := getHashState()
	defer putHashState(st)
	st.build(build, sumOnBuild, threads)
	return st.probe(op, probe, swapped, sumOnBuild, threads, pairs)
}

// build erects the build side's table: direct-addressed when its keys
// are dense enough, otherwise scattered into hash partitions, each with
// its own open-addressing table. Partition builds are independent
// (partition-disjoint slot regions and entry ranges), so they run in
// parallel on large builds.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func (st *hashState) build(in Input, sumOnBuild bool, threads int) {
	if st.direct = st.buildDirect(in, sumOnBuild); st.direct {
		return
	}
	n := len(in.Keys)
	st.bits = partitionBits(n)
	nparts := 1 << uint(st.bits)

	// Histogram + partition offsets.
	st.hist = grow32(st.hist, nparts)
	clear(st.hist)
	if st.bits > 0 {
		shift := uint(64 - st.bits)
		for _, k := range in.Keys {
			st.hist[splitmix64(uint64(k))>>shift]++
		}
	} else {
		st.hist[0] = int32(n)
	}
	st.starts = grow32(st.starts, nparts+1)
	st.slotOff = grow32(st.slotOff, nparts+1)
	st.cur = grow32(st.cur, nparts)
	off, slots := int32(0), int32(0)
	for p := 0; p < nparts; p++ {
		st.starts[p] = off
		st.cur[p] = off
		st.slotOff[p] = slots
		off += st.hist[p]
		if st.hist[p] > 0 {
			slots += int32(arena(int(st.hist[p])))
		}
	}
	st.starts[nparts] = off
	st.slotOff[nparts] = slots

	// Scatter keys, rows and (when the sum folds over the build side)
	// payload values into partition order.
	st.bkeys = grow64(st.bkeys, n)
	st.brows = growU32(st.brows, n)
	st.next = grow32(st.next, n)
	if sumOnBuild {
		st.bvals = grow64(st.bvals, n)
	}
	if st.bits > 0 {
		shift := uint(64 - st.bits)
		for i, k := range in.Keys {
			p := splitmix64(uint64(k)) >> shift
			e := st.cur[p]
			st.cur[p] = e + 1
			st.bkeys[e] = k
			st.brows[e] = in.Rows[i]
			if sumOnBuild {
				st.bvals[e] = in.Vals[i]
			}
		}
	} else {
		copy(st.bkeys, in.Keys)
		copy(st.brows, in.Rows)
		if sumOnBuild {
			copy(st.bvals, in.Vals)
		}
	}

	st.skey = grow64(st.skey, int(slots))
	st.shead = grow32(st.shead, int(slots))
	st.scnt = grow32(st.scnt, int(slots))
	if sumOnBuild {
		st.ssum = grow64(st.ssum, int(slots))
	}
	clear(st.shead)

	if threads > 1 && n >= minParallelJoin && nparts > 1 {
		column.ForChunks(nparts, threads, 1, func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				st.buildPart(p, sumOnBuild)
			}
		})
		return
	}
	for p := 0; p < nparts; p++ {
		st.buildPart(p, sumOnBuild)
	}
}

// buildDirect erects a direct-addressed table when the build keys are
// Addressable — they span no more values than the slot arena hashing
// would allocate, so it never takes more memory: slot k-min chains key
// k's entries and carries their count and payload sum, and an empty slot
// counts 0. It reports false, having built nothing, for a sparser
// domain.
//
//holistic:noalloc
func (st *hashState) buildDirect(in Input, sumOnBuild bool) bool {
	mn, mx := in.Keys[0], in.Keys[0]
	for _, k := range in.Keys {
		mn, mx = min(mn, k), max(mx, k)
	}
	n := len(in.Keys)
	if !Addressable(uint64(mx)-uint64(mn), n) {
		return false
	}
	span := int(uint64(mx)-uint64(mn)) + 1
	st.dmin = mn
	st.shead = grow32(st.shead, span)
	st.scnt = grow32(st.scnt, span)
	clear(st.shead)
	clear(st.scnt)
	if sumOnBuild {
		st.ssum = grow64(st.ssum, span)
		clear(st.ssum)
	}
	st.next = grow32(st.next, n)
	st.brows = growU32(st.brows, n)
	copy(st.brows, in.Rows)
	for e, k := range in.Keys {
		s := uint64(k) - uint64(mn)
		st.next[e] = st.shead[s]
		st.shead[s] = int32(e + 1)
		st.scnt[s]++
		if sumOnBuild {
			st.ssum[s] += in.Vals[e]
		}
	}
	return true
}

// buildPart inserts partition p's entries into its slot region:
// linear-probing on the key, duplicates chained through next with a
// running per-key count and payload sum.
//
//holistic:noalloc
func (st *hashState) buildPart(p int, sumOnBuild bool) {
	slotLo, slotHi := st.slotOff[p], st.slotOff[p+1]
	if slotLo == slotHi {
		return
	}
	mask := uint64(slotHi-slotLo) - 1
	for e := st.starts[p]; e < st.starts[p+1]; e++ {
		k := st.bkeys[e]
		s := slotLo + int32(splitmix64(uint64(k))&mask)
		for {
			if st.shead[s] == 0 {
				st.skey[s] = k
				st.shead[s] = e + 1
				st.next[e] = 0
				st.scnt[s] = 1
				if sumOnBuild {
					st.ssum[s] = st.bvals[e]
				}
				break
			}
			if st.skey[s] == k {
				st.next[e] = st.shead[s]
				st.shead[s] = e + 1
				st.scnt[s]++
				if sumOnBuild {
					st.ssum[s] += st.bvals[e]
				}
				break
			}
			s++
			if s == slotHi {
				s = slotLo
			}
		}
	}
}

// probe streams the probe side against the partition tables. Count and
// sum fold per-slot aggregates — duplicate chains are never walked —
// and split across workers on large probes; OpPairs walks chains
// sequentially into pairs.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func (st *hashState) probe(op Op, in Input, swapped, sumOnBuild bool, threads int, pairs *Pairs) (count, sum int64) {
	n := len(in.Keys)
	if op.Kind != OpPairs && threads > 1 && n >= minParallelJoin {
		workers := threads
		st.wcount = grow64(st.wcount, workers)
		st.wsum = grow64(st.wsum, workers)
		clear(st.wcount)
		clear(st.wsum)
		column.ForChunks(n, workers, 1, func(w, lo, hi int) {
			st.wcount[w], st.wsum[w] = st.probeRange(op, in, swapped, sumOnBuild, lo, hi, nil)
		})
		for w := 0; w < workers; w++ {
			count += st.wcount[w]
			sum += st.wsum[w]
		}
		return count, sum
	}
	return st.probeRange(op, in, swapped, sumOnBuild, 0, n, pairs)
}

// probeRange probes the rows [lo, hi) of the probe side.
//
//holistic:noalloc
func (st *hashState) probeRange(op Op, in Input, swapped, sumOnBuild bool, lo, hi int, pairs *Pairs) (count, sum int64) {
	if st.direct {
		return st.probeDirect(op, in, swapped, sumOnBuild, lo, hi, pairs)
	}
	shift := uint(64 - st.bits)
	for i := lo; i < hi; i++ {
		k := in.Keys[i]
		h := splitmix64(uint64(k))
		p := 0
		if st.bits > 0 {
			p = int(h >> shift)
		}
		slotLo, slotHi := st.slotOff[p], st.slotOff[p+1]
		if slotLo == slotHi {
			continue
		}
		mask := uint64(slotHi-slotLo) - 1
		s := slotLo + int32(h&mask)
		for {
			g := st.shead[s]
			if g == 0 {
				break
			}
			if st.skey[s] == k {
				c := int64(st.scnt[s])
				count += c
				if op.Kind == OpSum {
					if sumOnBuild {
						sum += st.ssum[s]
					} else {
						sum += c * in.Vals[i]
					}
				}
				if pairs != nil {
					st.appendPairs(pairs, swapped, g, in.Rows[i])
				}
				break
			}
			s++
			if s == slotHi {
				s = slotLo
			}
		}
	}
	return count, sum
}

// probeDirect is probeRange over a direct-addressed table: a probe key
// outside the build span matches nothing, any other reads its slot —
// empty slots count 0, so no test for one.
//
//holistic:noalloc
func (st *hashState) probeDirect(op Op, in Input, swapped, sumOnBuild bool, lo, hi int, pairs *Pairs) (count, sum int64) {
	span := uint64(len(st.scnt))
	for i := lo; i < hi; i++ {
		s := uint64(in.Keys[i]) - uint64(st.dmin)
		if s >= span {
			continue
		}
		c := int64(st.scnt[s])
		count += c
		if op.Kind == OpSum {
			if sumOnBuild {
				sum += st.ssum[s]
			} else {
				sum += c * in.Vals[i]
			}
		}
		if pairs != nil {
			st.appendPairs(pairs, swapped, st.shead[s], in.Rows[i])
		}
	}
	return count, sum
}

// appendPairs appends probe row r paired with every build entry on the
// duplicate chain from head e.
//
//holistic:noalloc
func (st *hashState) appendPairs(p *Pairs, swapped bool, e int32, r uint32) {
	bl, pl := &p.Left, &p.Right
	if swapped {
		bl, pl = &p.Right, &p.Left
	}
	for ; e != 0; e = st.next[e-1] {
		*bl = append(*bl, st.brows[e-1])
		*pl = append(*pl, r)
	}
}

package join

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/model"
)

// modelJoin is the model's answer for joining two inputs: the pair
// count, the sum of sumSide's values over the pairs, and the pairs of
// row ids, ascending.
func modelJoin(left, right Input, sumSide Side) (count, sum int64, pairs [][2]uint32) {
	side := func(in Input) *model.Table {
		m := model.New([]string{"k", "v"})
		for i, k := range in.Keys {
			m.Put("k", in.Rows[i], k)
			if in.Vals != nil {
				m.Put("v", in.Rows[i], in.Vals[i])
			}
		}
		return m
	}
	l, r := side(left), side(right)
	pairs, joined := model.Join(l, "k", l.Rows(nil), r, "k", r.Rows(nil))
	return int64(len(pairs)), joined.Sum([]string{"l.v", "r.v"}[sumSide], nil), pairs
}

func sortedPairs(l, r column.PosList) [][2]uint32 {
	out := make([][2]uint32, len(l))
	for i := range l {
		out[i] = [2]uint32{l[i], r[i]}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

func randInput(rng *rand.Rand, n int, domain int64) Input {
	in := Input{Keys: make([]int64, n), Rows: make([]uint32, n), Vals: make([]int64, n)}
	for i := range in.Keys {
		in.Keys[i] = rng.Int63n(domain)
		in.Rows[i] = uint32(i)
		in.Vals[i] = rng.Int63n(1000) - 500
	}
	return in
}

// spanInput is a build side of n keys spanning exactly span values from
// lo (both ends present, the rest uniform inside; span >= 2), with
// distinct row ids from rowBase.
func spanInput(rng *rand.Rand, n int, lo int64, span uint64, rowBase uint32) Input {
	in := randInput(rng, n, 1)
	for i := range in.Keys {
		in.Keys[i] = lo + int64(rng.Uint64()%span)
		in.Rows[i] += rowBase
	}
	in.Keys[0], in.Keys[n-1] = lo, lo+int64(span-1)
	return in
}

// probeOf draws n probe keys, half from the build side's keys and half
// from extra (or the build keys shifted by ±1 when extra is nil).
func probeOf(rng *rand.Rand, build Input, n int, extra []int64) Input {
	in := randInput(rng, n, 1)
	for i := range in.Keys {
		k := build.Keys[rng.Intn(len(build.Keys))]
		switch {
		case i%2 == 0:
		case extra != nil:
			k = extra[rng.Intn(len(extra))]
		default:
			k += int64(rng.Intn(3)) - 1
		}
		in.Keys[i] = k
	}
	return in
}

// TestHashMatchesNestedLoop covers the hash kernel across size
// asymmetries (build-side choice), duplicate fan-outs (small domains)
// and both slot-addressing modes — each case states which one its build
// side takes: direct spans right at and just past pow2(2n), a wide
// domain over enough keys to partition, int64 extremes (a span that
// overflows int64, keys at the edges with probes wrapping past them),
// probes outside the build span, and a probe side large enough to split
// across workers — for every terminal, both sum sides, threads 1 and 4.
func TestHashMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type hashCase struct {
		name        string
		left, right Input
		direct      bool
	}
	var cases []hashCase
	add := func(name string, left, right Input, direct bool) {
		cases = append(cases, hashCase{name, left, right, direct})
	}
	for _, tc := range []struct {
		nl, nr int
		domain int64
		direct bool
	}{
		{0, 10, 8, false}, {10, 0, 8, false}, {1, 1, 1, true},
		{50, 800, 40, true},    // heavy M:N duplication, left builds
		{800, 50, 40, true},    // right builds
		{300, 300, 1e9, false}, // mostly unique keys, sparse overlap
	} {
		add(fmt.Sprintf("random(%d,%d,dom=%d)", tc.nl, tc.nr, tc.domain),
			randInput(rng, tc.nl, tc.domain), randInput(rng, tc.nr, tc.domain), tc.direct)
	}
	const n = 300 // pow2(2n) = 1024 slots
	at := spanInput(rng, n, -500, 1024, 0)
	add("span=pow2(2n)", at, probeOf(rng, at, 900, nil), true)
	past := spanInput(rng, n, -500, 1025, 0)
	add("span=pow2(2n)+1", probeOf(rng, past, 900, nil), past, false)
	wide := spanInput(rng, 1<<14, 1<<39, 1<<40, 0)
	add("wide-partitioned", wide, probeOf(rng, wide, 1<<14+500, nil), false)
	ends := spanInput(rng, 64, math.MinInt64, 1<<63, 0)
	ends.Keys[1] = math.MaxInt64 // a span of 2^64 values: past any arena
	add("int64-extremes", probeOf(rng, ends, 200, nil), ends, false)
	top := spanInput(rng, 64, math.MaxInt64-99, 100, 0)
	add("top-edge", top, probeOf(rng, top, 300, []int64{math.MinInt64, math.MinInt64 + 1, -1, 0}), true)
	bottom := spanInput(rng, 64, math.MinInt64, 100, 0)
	add("bottom-edge", probeOf(rng, bottom, 300, []int64{math.MaxInt64, math.MaxInt64 - 1, 1 << 62}), bottom, true)
	small := spanInput(rng, 100, 1000, 150, 0)
	add("parallel-probe", small, probeOf(rng, small, minParallelJoin+1000, []int64{-1, 999, 1150, 1 << 40}), true)

	for _, tc := range cases {
		if len(tc.left.Keys) > 0 && len(tc.right.Keys) > 0 {
			build := tc.left
			if len(tc.right.Keys) < len(tc.left.Keys) {
				build = tc.right
			}
			st := getHashState()
			st.build(build, true, 1)
			if st.direct != tc.direct {
				t.Errorf("%s: direct addressing = %v, want %v", tc.name, st.direct, tc.direct)
			}
			putHashState(st)
		}
		left, right := tc.left, tc.right
		for _, sumSide := range []Side{Left, Right} {
			wantCount, wantSum, wantPairs := modelJoin(left, right, sumSide)
			for _, threads := range []int{1, 4} {
				c, _ := Hash(Op{Kind: OpCount}, left, right, threads, nil)
				if c != wantCount {
					t.Fatalf("%s: Hash count(t=%d) = %d, want %d", tc.name, threads, c, wantCount)
				}
				c, s := Hash(Op{Kind: OpSum, SumSide: sumSide}, left, right, threads, nil)
				if c != wantCount || s != wantSum {
					t.Fatalf("%s: Hash sum(%v, t=%d) = (%d,%d), want (%d,%d)", tc.name, sumSide, threads, c, s, wantCount, wantSum)
				}
				var p Pairs
				c, _ = Hash(Op{Kind: OpPairs}, left, right, threads, &p)
				if c != wantCount || p.Len() != len(wantPairs) {
					t.Fatalf("%s: Hash pairs(t=%d): count %d len %d, want %d", tc.name, threads, c, p.Len(), len(wantPairs))
				}
				got := sortedPairs(p.Left, p.Right)
				for i := range got {
					if got[i] != wantPairs[i] {
						t.Fatalf("%s: Hash pairs[%d] = %v, want %v", tc.name, i, got[i], wantPairs[i])
					}
				}
			}
		}
	}
}

// clusterStream builds a key-ordered cluster Stream from an input: the
// entries sort by key and split into value-disjoint clusters of random
// width, exercising the cluster-intersection merge rule.
func clusterStream(rng *rand.Rand, in Input, sel *column.Bitmap) Stream {
	type kv struct {
		k int64
		r uint32
		v int64
	}
	s := make([]kv, len(in.Keys))
	for i := range in.Keys {
		s[i] = kv{in.Keys[i], in.Rows[i], in.Vals[i]}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].k < s[b].k })
	// Cluster boundaries may only fall between distinct values.
	var bounds []int
	for i := 1; i < len(s); i++ {
		if s[i].k != s[i-1].k && rng.Intn(3) == 0 {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(s))
	// Shuffle within each cluster: values inside one cluster are
	// unordered per the WalkKeyOrder contract.
	prev := 0
	var clusters [][]kv
	for _, b := range bounds {
		c := append([]kv(nil), s[prev:b]...)
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		clusters = append(clusters, c)
		prev = b
	}
	// The payload view maps row id -> value (rows here are unique ids).
	maxRow := uint32(0)
	for _, e := range s {
		if e.r > maxRow {
			maxRow = e.r
		}
	}
	payload := make([]int64, int(maxRow)+1)
	for _, e := range s {
		payload[e.r] = e.v
	}
	return Stream{
		Walk: func(fn func(vals []int64, rows []uint32)) bool {
			for _, c := range clusters {
				vals := make([]int64, len(c))
				rows := make([]uint32, len(c))
				for i, e := range c {
					vals[i] = e.k
					rows[i] = e.r
				}
				fn(vals, rows)
			}
			return true
		},
		Sel:   sel,
		Vals:  column.View{Base: payload},
		Count: len(in.Keys),
	}
}

// TestMergeMatchesNestedLoop checks the index-clustered merge join —
// dense and wide cluster pairs, both build sides, with and without
// selection bitmaps — against the model.
func TestMergeMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		nl, nr    int
		domain    int64
		spanLimit int
	}{
		{60, 500, 50, 0},       // duplicates, dense pairs
		{500, 60, 50, 0},       // swapped build
		{400, 400, 1 << 40, 0}, // huge spans: every pair takes the wide path
		{300, 300, 2000, 16},   // tiny span limit forces wide fallback mid-mix
		{0, 50, 20, 0}, {50, 0, 20, 0},
	}
	for _, tc := range cases {
		for _, withSel := range []bool{false, true} {
			left := randInput(rng, tc.nl, tc.domain)
			right := randInput(rng, tc.nr, tc.domain)
			var lSel, rSel *column.Bitmap
			oleft, oright := left, right
			if withSel {
				lSel, oleft = selectHalf(rng, left)
				rSel, oright = selectHalf(rng, right)
			}
			for _, sumSide := range []Side{Left, Right} {
				wantCount, wantSum, wantPairs := modelJoin(oleft, oright, sumSide)
				ls := clusterStream(rng, left, lSel)
				rs := clusterStream(rng, right, rSel)
				c, s, ok := Merge(Op{Kind: OpSum, SumSide: sumSide}, ls, rs, tc.spanLimit, nil)
				if !ok {
					t.Fatal("Merge declined a live walk")
				}
				if c != wantCount || s != wantSum {
					t.Fatalf("Merge(%d,%d,dom=%d,sel=%v,sum=%v) = (%d,%d), want (%d,%d)",
						tc.nl, tc.nr, tc.domain, withSel, sumSide, c, s, wantCount, wantSum)
				}
				var p Pairs
				if _, _, ok := Merge(Op{Kind: OpPairs}, ls, rs, tc.spanLimit, &p); !ok {
					t.Fatal("Merge declined a live walk")
				}
				got := sortedPairs(p.Left, p.Right)
				if len(got) != len(wantPairs) {
					t.Fatalf("Merge pairs: %d, want %d", len(got), len(wantPairs))
				}
				for i := range got {
					if got[i] != wantPairs[i] {
						t.Fatalf("Merge pairs[%d] = %v, want %v", i, got[i], wantPairs[i])
					}
				}
			}
		}
	}
}

// selectHalf drops a random half of the input through a bitmap,
// returning the bitmap (over the row-id universe) and the surviving
// subset for the model.
func selectHalf(rng *rand.Rand, in Input) (*column.Bitmap, Input) {
	maxRow := uint32(0)
	for _, r := range in.Rows {
		if r > maxRow {
			maxRow = r
		}
	}
	bm := column.NewBitmap(int(maxRow) + 1)
	var out Input
	for i := range in.Keys {
		if rng.Intn(2) == 0 {
			continue
		}
		bm.Set(in.Rows[i])
		out.Keys = append(out.Keys, in.Keys[i])
		out.Rows = append(out.Rows, in.Rows[i])
		out.Vals = append(out.Vals, in.Vals[i])
	}
	return bm, out
}

// TestMergeDeclinesWithoutPath: a stream whose walk reports no
// key-ordered access path makes Merge report ok=false.
func TestMergeDeclinesWithoutPath(t *testing.T) {
	dead := Stream{Walk: func(func([]int64, []uint32)) bool { return false }}
	live := clusterStream(rand.New(rand.NewSource(1)), randInput(rand.New(rand.NewSource(2)), 10, 5), nil)
	if _, _, ok := Merge(Op{Kind: OpCount}, dead, live, 0, nil); ok {
		t.Error("Merge did not decline a dead build walk")
	}
	if _, _, ok := Merge(Op{Kind: OpCount}, live, dead, 0, nil); ok {
		t.Error("Merge did not decline a dead probe walk")
	}
}

// TestGroupedOverPairs checks the join→group pipeline: grouped counts
// and sums over materialized pairs against a map oracle.
func TestGroupedOverPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	left := randInput(rng, 200, 30)
	right := randInput(rng, 300, 30)
	// Group key: a left-side attribute (rows are ids into this array).
	keyCol := make([]int64, 200)
	for i := range keyCol {
		keyCol[i] = int64(i % 7)
	}
	var p Pairs
	Hash(Op{Kind: OpPairs}, left, right, 1, &p)

	wantCnt := map[int64]int64{}
	wantSum := map[int64]int64{}
	for i := range p.Left {
		k := keyCol[p.Left[i]]
		wantCnt[k]++
		wantSum[k] += right.Vals[p.Right[i]]
	}

	var res groupby.Result
	err := Grouped(&p,
		[]PairCol{{Side: Left, View: column.View{Base: keyCol}}},
		[][2]int64{{0, 6}},
		[]groupby.Agg{groupby.Count(), groupby.Sum("v")},
		[]PairCol{{}, {Side: Right, View: column.View{Base: right.Vals}}},
		&res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(wantCnt) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(wantCnt))
	}
	for g := 0; g < res.Len(); g++ {
		k := res.Keys[0][g]
		if res.Aggs[0][g] != wantCnt[k] || res.Aggs[1][g] != wantSum[k] {
			t.Fatalf("group %d: (%d,%d), want (%d,%d)", k, res.Aggs[0][g], res.Aggs[1][g], wantCnt[k], wantSum[k])
		}
		if g > 0 && res.Keys[0][g-1] >= k {
			t.Fatal("groups not in ascending key order")
		}
	}
}

// TestHashCountAllocationFree: the kernel-level count path through
// pooled scratch allocates nothing once warm, over a direct-addressed
// table and a radix-hashed one alike (the query-runner-level gate lives
// in internal/query).
func TestHashCountAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(5))
	for _, domain := range []int64{512 /* direct */, 1 << 40 /* hashed */} {
		left := randInput(rng, 4096, domain)
		right := probeOf(rng, left, 8192, nil)
		Hash(Op{Kind: OpCount}, left, right, 1, nil) // warm the pool
		allocs := testing.AllocsPerRun(50, func() {
			Hash(Op{Kind: OpCount}, left, right, 1, nil)
		})
		if allocs != 0 {
			t.Errorf("hash-join count over domain %d allocates %.1f times per run, want 0", domain, allocs)
		}
	}
}

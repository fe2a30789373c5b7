package holistic

import (
	"math/rand"
	"sort"
	"testing"

	"holistic/internal/workload"
)

// joinStores builds the two relations of the join differential test
// from workload.GenerateJoin: L(k, v) and R(rk, w), keys overlapping
// and duplicated so every fan-out shape occurs.
func joinStores(t *testing.T, mode Mode, seed int64) (l, r *Store, lo, ro *conjOracle) {
	t.Helper()
	lk, rk := workload.GenerateJoin(workload.JoinConfig{
		LeftRows: 360, RightRows: 520, Keys: 120,
		Overlap: 0.7, Fan: workload.FanManyToMany, Skew: 0.8, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	payload := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63n(1000)
		}
		return out
	}
	lv, rw := payload(len(lk)), payload(len(rk))
	mk := func(kName, vName string, keys, vals []int64) (*Store, *conjOracle) {
		cfg := storeConfig(mode)
		cfg.Seed = seed
		s := NewStore(cfg)
		if err := s.AddIntColumn(kName, keys); err != nil {
			t.Fatal(err)
		}
		if err := s.AddIntColumn(vName, vals); err != nil {
			t.Fatal(err)
		}
		return s, newConjOracle([][]int64{keys, vals})
	}
	l, lo = mk("k", "v", lk, lv)
	r, ro = mk("rk", "w", rk, rw)
	return l, r, lo, ro
}

// oracleJoinPairs crosses the two oracles: rows qualifying their side's
// predicates (attribute 0 is the join key, 1 the payload) with live
// join-key values, matched on equality. lExtra/rExtra additionally
// require a live value in the payload attribute (the Sum/GroupBy
// presence rule).
func oracleJoinPairs(lo, ro *conjOracle, lp, rp []conjPred, lExtra, rExtra bool) [][2]uint32 {
	extras := func(need bool) []int {
		if need {
			return []int{1}
		}
		return nil
	}
	var pairs [][2]uint32
	lq := lo.evaluate(lp, extras(lExtra))
	rq := ro.evaluate(rp, extras(rExtra))
	for _, li := range lq {
		lk, ok := lo.at(0, int(li))
		if !ok {
			continue
		}
		for _, ri := range rq {
			rk, ok := ro.at(0, int(ri))
			if !ok {
				continue
			}
			if lk == rk {
				pairs = append(pairs, [2]uint32{li, ri})
			}
		}
	}
	return pairs
}

// TestJoinMatchesOracleAllModes is the randomized differential test of
// Store.Query().Join: joins between two stores in every mode, with and
// without per-side predicates, with interleaved inserts, deletes and
// updates on both relations where the mode supports them, checked
// against a nested-loop oracle over the tracked logical state.
func TestJoinMatchesOracleAllModes(t *testing.T) {
	modes := []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			l, r, lo, ro := joinStores(t, mode, 91+int64(mode))
			defer l.Close()
			defer r.Close()
			l.Prepare()
			r.Prepare()
			canUpdate := mode == ModeAdaptive || mode == ModeStochastic || mode == ModeHolistic
			rng := rand.New(rand.NewSource(17 + int64(mode)))

			mutate := func(s *Store, o *conjOracle, names [2]string) {
				a := rng.Intn(2)
				switch rng.Intn(3) {
				case 0:
					v := rng.Int63n(1000)
					if err := s.Insert(names[a], v); err != nil {
						t.Fatal(err)
					}
					o.insert(a, v)
				case 1:
					for tries := 0; tries < 10; tries++ {
						v, ok := o.at(a, rng.Intn(len(o.vals[a])))
						if !ok {
							continue
						}
						row, _ := o.lowestLiveRow(a, v)
						if err := s.Delete(names[a], v); err != nil {
							t.Fatal(err)
						}
						o.dead[a][row] = true
						break
					}
				case 2:
					for tries := 0; tries < 10; tries++ {
						v, ok := o.at(a, rng.Intn(len(o.vals[a])))
						if !ok {
							continue
						}
						row, _ := o.lowestLiveRow(a, v)
						nv := rng.Int63n(1000)
						if err := s.Update(names[a], v, nv); err != nil {
							t.Fatal(err)
						}
						o.vals[a][row] = nv
						break
					}
				}
			}

			for q := 0; q < 18; q++ {
				if canUpdate && q%3 == 1 {
					mutate(l, lo, [2]string{"k", "v"})
					mutate(r, ro, [2]string{"rk", "w"})
				}

				var lp, rp []conjPred
				lq := l.Query()
				rq := r.Query()
				if rng.Intn(3) > 0 {
					hi := rng.Int63n(900) + 100
					lp = append(lp, conjPred{attr: 1, lo: 0, hi: hi})
					lq = lq.Where("v", 0, hi)
				}
				if rng.Intn(3) > 0 {
					lo2 := rng.Int63n(500)
					rp = append(rp, conjPred{attr: 1, lo: lo2, hi: 1000})
					rq = rq.Where("w", lo2, 1000)
				}
				j := lq.Join(rq, "k", "rk")

				countPairs := oracleJoinPairs(lo, ro, lp, rp, false, false)
				n, err := j.Count()
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(len(countPairs)) {
					t.Fatalf("query %d: count = %d, want %d", q, n, len(countPairs))
				}

				gotL, gotR, err := j.Pairs()
				if err != nil {
					t.Fatal(err)
				}
				if len(gotL) != len(countPairs) {
					t.Fatalf("query %d: %d pairs, want %d", q, len(gotL), len(countPairs))
				}
				sort.Slice(countPairs, func(a, b int) bool {
					if countPairs[a][0] != countPairs[b][0] {
						return countPairs[a][0] < countPairs[b][0]
					}
					return countPairs[a][1] < countPairs[b][1]
				})
				for i := range gotL {
					if gotL[i] != countPairs[i][0] || gotR[i] != countPairs[i][1] {
						t.Fatalf("query %d: pairs[%d] = (%d,%d), want %v", q, i, gotL[i], gotR[i], countPairs[i])
					}
				}

				sumPairs := oracleJoinPairs(lo, ro, lp, rp, false, true)
				var wantSum int64
				for _, pr := range sumPairs {
					v, _ := ro.at(1, int(pr[1]))
					wantSum += v
				}
				s, err := j.Sum("w")
				if err != nil {
					t.Fatal(err)
				}
				if s != wantSum {
					t.Fatalf("query %d: sum(w) = %d, want %d", q, s, wantSum)
				}

				// Grouped: by the left payload, counting pairs and summing
				// the right payload — requires live v and w at the pair.
				gPairs := oracleJoinPairs(lo, ro, lp, rp, true, true)
				wantCnt := map[int64]int64{}
				wantGSum := map[int64]int64{}
				for _, pr := range gPairs {
					g, _ := lo.at(1, int(pr[0]))
					w, _ := ro.at(1, int(pr[1]))
					wantCnt[g]++
					wantGSum[g] += w
				}
				res, err := j.GroupBy("v").Aggregate(Count(), Sum("w"))
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != len(wantCnt) {
					t.Fatalf("query %d: %d groups, want %d", q, res.Len(), len(wantCnt))
				}
				for g := 0; g < res.Len(); g++ {
					k := res.Keys[0][g]
					if res.Aggs[0][g] != wantCnt[k] || res.Aggs[1][g] != wantGSum[k] {
						t.Fatalf("query %d group %d: (%d,%d), want (%d,%d)",
							q, k, res.Aggs[0][g], res.Aggs[1][g], wantCnt[k], wantGSum[k])
					}
				}
			}
		})
	}
}

// TestUnwalkableKeysStayOutOfTheIndexSpace is the memory rule in
// process: a holistic store that runs only grouped queries over
// dense-eligible keys and joins with a sparse side builds no cracker
// copy of those keys — only of the range attributes its predicates use.
func TestUnwalkableKeysStayOutOfTheIndexSpace(t *testing.T) {
	const rows = 20_000
	rng := rand.New(rand.NewSource(3))
	col := func(domain int64) []int64 {
		out := make([]int64, rows)
		for i := range out {
			out[i] = rng.Int63n(domain)
		}
		return out
	}
	mk := func(cols map[string][]int64) *Store {
		s := NewStore(storeConfig(ModeHolistic))
		for name, vals := range cols {
			if err := s.AddIntColumn(name, vals); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	l := mk(map[string][]int64{"x": col(1 << 20), "g0": col(64), "g1": col(8), "k": col(1 << 14)})
	r := mk(map[string][]int64{"y": col(1 << 20), "rk": col(1 << 14)})
	defer l.Close()
	defer r.Close()

	for q := 0; q < 20; q++ {
		lo := rng.Int63n(1 << 19)
		if _, err := l.Query().Where("x", lo, lo+1<<18).GroupBy("g0").Aggregate(Count(), Sum("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Query().GroupBy("g1", "g0").Aggregate(Count()); err != nil {
			t.Fatal(err)
		}
		// The left side selects ~1/16 of its rows: too sparse to walk.
		if _, err := l.Query().Where("x", lo, lo+1<<16).Join(r.Query(), "k", "rk").Count(); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []struct {
		s     *Store
		attrs []string
	}{{l, []string{"g0", "g1", "k"}}, {r, []string{"rk"}}} {
		for _, attr := range side.attrs {
			if side.s.exec.CrackerIfExists(attr) != nil {
				t.Errorf("key %s has a cracker copy; no plan could walk it", attr)
			}
		}
	}
	if l.exec.CrackerIfExists("x") == nil {
		t.Error("the driving range attribute x has no cracker")
	}
}

// TestJoinBuilderMisc covers the public builder's resolution rules:
// ambiguous and unknown attributes, closed stores.
func TestJoinBuilderMisc(t *testing.T) {
	l, r, _, _ := joinStores(t, ModeAdaptive, 7)
	defer r.Close()
	if _, err := l.Query().Join(r.Query(), "k", "rk").Sum("nope"); err == nil {
		t.Error("unknown sum attribute did not error")
	}
	// "v" only on the left, "w" only on the right: both resolve.
	if _, err := l.Query().Join(r.Query(), "k", "rk").Sum("v"); err != nil {
		t.Error(err)
	}
	// An attribute present on both sides is ambiguous.
	l2 := NewStore(Config{Mode: ModeScan})
	defer l2.Close()
	if err := l2.AddIntColumn("w", []int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Query().Join(r.Query(), "w", "rk").Sum("w"); err == nil {
		t.Error("ambiguous attribute did not error")
	}
	l.Close()
	if _, err := l.Query().Join(r.Query(), "k", "rk").Count(); err == nil {
		t.Error("join on a closed store did not error")
	}
}

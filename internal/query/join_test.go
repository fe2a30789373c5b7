package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/join"
)

// joinFixture builds two relations with a controlled key overlap: L(k,
// v) and R(k, w), keys drawn from a small domain so fan-out is real.
func joinFixture(t testing.TB, rows int, domain int64, seed int64) (lt, rt *engine.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(name string, n int) *engine.Table {
		tab := engine.NewTable(name)
		keys := make([]int64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(domain)
			vals[i] = rng.Int63n(1000)
		}
		tab.MustAddColumn(column.New("k", keys))
		tab.MustAddColumn(column.New("v", vals))
		return tab
	}
	return mk("L", rows), mk("R", rows*3/2)
}

// joinExecs builds one executor per strategy-relevant mode over a
// table (the full seven-mode sweep lives in the repository root's
// differential test; here the access-path variety matters).
func joinExecs(tab *engine.Table, threads int) map[string]*engine.Executor {
	crackCfg := cracking.Config{ParallelWorkers: threads, WithRows: true}
	return map[string]*engine.Executor{
		"scan":     engine.NewScanExecutor(tab, threads),
		"offline":  engine.NewOfflineExecutor(tab, threads),
		"adaptive": engine.NewAdaptiveExecutor(tab, crackCfg, ""),
	}
}

// oracleJoin computes the expected join folds by nested loop over the
// base columns under both sides' predicates.
func oracleJoin(lt, rt *engine.Table, lPreds, rPreds []Predicate, sumSide join.Side, sumAttr string) (count, sum int64, pairs [][2]uint32) {
	qual := func(tab *engine.Table, preds []Predicate, row int) bool {
		for _, p := range preds {
			v := tab.Column(p.Attr).Values()[row]
			if v < p.Lo || v >= p.Hi {
				return false
			}
		}
		return true
	}
	lk := lt.Column("k").Values()
	rk := rt.Column("k").Values()
	for i := range lk {
		if !qual(lt, lPreds, i) {
			continue
		}
		for j := range rk {
			if !qual(rt, rPreds, j) {
				continue
			}
			if lk[i] != rk[j] {
				continue
			}
			count++
			if sumAttr != "" {
				if sumSide == join.Left {
					sum += lt.Column(sumAttr).Values()[i]
				} else {
					sum += rt.Column(sumAttr).Values()[j]
				}
			}
			pairs = append(pairs, [2]uint32{uint32(i), uint32(j)})
		}
	}
	return count, sum, pairs
}

// TestJoinMatchesOracleAcrossExecutors drives randomized joins (with
// and without per-side predicates) through every executor pairing and
// both forced strategies, comparing Count, Sum, Pairs and Grouped
// against the nested-loop oracle.
func TestJoinMatchesOracleAcrossExecutors(t *testing.T) {
	lt, rt := joinFixture(t, 600, 200, 21)
	rng := rand.New(rand.NewSource(22))
	for lName, lExec := range joinExecs(lt, 2) {
		for rName, rExec := range joinExecs(rt, 2) {
			t.Run(lName+"_"+rName, func(t *testing.T) {
				defer lExec.Close()
				defer rExec.Close()
				lr := New(lt, lExec, 2)
				rr := New(rt, rExec, 2)
				for q := 0; q < 8; q++ {
					var lPreds, rPreds []Predicate
					if q%2 == 0 {
						lPreds = []Predicate{{Attr: "v", Lo: 0, Hi: rng.Int63n(900) + 100}}
					}
					if q%3 == 0 {
						rPreds = []Predicate{{Attr: "v", Lo: rng.Int63n(300), Hi: 1000}}
					}
					sumSide := join.Side(q % 2)
					wantCount, wantSum, wantPairs := oracleJoin(lt, rt, lPreds, rPreds, sumSide, "v")

					for _, strat := range []JoinStrategy{JoinAuto, JoinHash, JoinMerge} {
						lr.SetJoinStrategy(strat)
						j := lr.Join(rr, "k", "k", lPreds, rPreds)
						n, err := j.Count()
						if err != nil {
							t.Fatal(err)
						}
						if n != wantCount {
							t.Fatalf("q%d strat=%v: count %d, want %d", q, strat, n, wantCount)
						}
						s, err := j.Sum(sumSide, "v")
						if err != nil {
							t.Fatal(err)
						}
						if s != wantSum {
							t.Fatalf("q%d strat=%v: sum %d, want %d", q, strat, s, wantSum)
						}
						pl, pr, err := j.Pairs()
						if err != nil {
							t.Fatal(err)
						}
						if len(pl) != len(wantPairs) {
							t.Fatalf("q%d strat=%v: %d pairs, want %d", q, strat, len(pl), len(wantPairs))
						}
						got := make([][2]uint32, len(pl))
						for i := range pl {
							got[i] = [2]uint32{pl[i], pr[i]}
						}
						sortPairs(got)
						sortPairs(wantPairs)
						for i := range got {
							if got[i] != wantPairs[i] {
								t.Fatalf("q%d strat=%v: pairs[%d] = %v, want %v", q, strat, i, got[i], wantPairs[i])
							}
						}
					}
					lr.SetJoinStrategy(JoinAuto)
				}
			})
		}
	}
}

func sortPairs(p [][2]uint32) {
	sort.Slice(p, func(a, b int) bool {
		if p[a][0] != p[b][0] {
			return p[a][0] < p[b][0]
		}
		return p[a][1] < p[b][1]
	})
}

// TestJoinGroupedMatchesOracle checks the join→group pipeline at the
// runner level: group by a left attribute, count and sum a right one.
func TestJoinGroupedMatchesOracle(t *testing.T) {
	lt, rt := joinFixture(t, 500, 80, 31)
	lExec := engine.NewAdaptiveExecutor(lt, cracking.Config{WithRows: true}, "")
	rExec := engine.NewOfflineExecutor(rt, 2)
	defer lExec.Close()
	defer rExec.Close()
	lr := New(lt, lExec, 2)
	rr := New(rt, rExec, 2)

	lPreds := []Predicate{{Attr: "v", Lo: 100, Hi: 900}}
	_, _, pairs := oracleJoin(lt, rt, lPreds, nil, join.Left, "")
	rw := rt.Column("v").Values()
	wantCnt := map[int64]int64{}
	wantSum := map[int64]int64{}
	// Group by the join key itself (left side), summing the right
	// payload.
	lk := lt.Column("k").Values()
	for _, pr := range pairs {
		g := lk[pr[0]]
		wantCnt[g]++
		wantSum[g] += rw[pr[1]]
	}

	res, err := lr.Join(rr, "k", "k", lPreds, nil).Grouped(
		[]GroupKey{{Side: join.Left, Attr: "k"}},
		[]GroupAgg{{Agg: groupby.Count()}, {Side: join.Right, Agg: groupby.Sum("v")}},
	)
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
	}
}

// TestJoinSelfJoin: joining a relation with itself through one runner
// uses two independent pooled scratches and stays correct.
func TestJoinSelfJoin(t *testing.T) {
	tab := engine.NewTable("T")
	tab.MustAddColumn(column.New("k", []int64{1, 2, 2, 3}))
	tab.MustAddColumn(column.New("v", []int64{10, 20, 30, 40}))
	exec := engine.NewScanExecutor(tab, 1)
	r := New(tab, exec, 1)
	n, err := r.Join(r, "k", "k", nil, nil).Count()
	if err != nil {
		t.Fatal(err)
	}
	// 1-1, 2x2 block, 3-3: 1 + 4 + 1.
	if n != 6 {
		t.Fatalf("self-join count = %d, want 6", n)
	}
}

// TestJoinErrors covers unknown attributes on either side.
func TestJoinErrors(t *testing.T) {
	lt, rt := joinFixture(t, 50, 20, 41)
	lr := New(lt, engine.NewScanExecutor(lt, 1), 1)
	rr := New(rt, engine.NewScanExecutor(rt, 1), 1)
	if _, err := lr.Join(rr, "nope", "k", nil, nil).Count(); err == nil {
		t.Error("unknown left join attribute did not error")
	}
	if _, err := lr.Join(rr, "k", "nope", nil, nil).Count(); err == nil {
		t.Error("unknown right join attribute did not error")
	}
	if _, err := lr.Join(rr, "k", "k", nil, nil).Sum(join.Left, "nope"); err == nil {
		t.Error("unknown sum attribute did not error")
	}
	if _, err := lr.Join(rr, "k", "k", []Predicate{{Attr: "zz", Lo: 0, Hi: 1}}, nil).Count(); err == nil {
		t.Error("unknown predicate attribute did not error")
	}
}

// TestJoinFeedsNotePredicate: under the holistic executor both join
// attributes enter the daemon's index space on the first join.
func TestJoinFeedsNotePredicate(t *testing.T) {
	lt, rt := joinFixture(t, 400, 100, 51)
	mkHolistic := func(tab *engine.Table) *engine.Executor {
		return engine.NewHolisticExecutor(tab, engine.HolisticConfig{
			Cracking: cracking.Config{WithRows: true},
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 4},
			Contexts: 2,
		})
	}
	lExec, rExec := mkHolistic(lt), mkHolistic(rt)
	defer lExec.Close()
	defer rExec.Close()
	lr := New(lt, lExec, 2)
	rr := New(rt, rExec, 2)
	if _, err := lr.Join(rr, "k", "k", []Predicate{{Attr: "v", Lo: 0, Hi: 500}}, nil).Count(); err != nil {
		t.Fatal(err)
	}
	if lExec.CrackerIfExists("k") == nil {
		t.Error("left join attribute not admitted to the index space")
	}
	if rExec.CrackerIfExists("k") == nil {
		t.Error("right join attribute not admitted to the index space")
	}
}

// TestJoinMergeConvergence: once the daemon has refined both join
// attributes, the auto strategy's availability checks pass and the
// merge join returns the same folds as the hash join.
func TestJoinMergeConvergence(t *testing.T) {
	lt, rt := joinFixture(t, 3000, 500, 61)
	lExec := engine.NewOfflineExecutor(lt, 2)
	rExec := engine.NewOfflineExecutor(rt, 2)
	defer lExec.Close()
	defer rExec.Close()
	lr := New(lt, lExec, 2)
	rr := New(rt, rExec, 2)
	// Offline sorts on demand: after the first join both sides have
	// span-1 key-ordered paths, so auto picks merge for dense queries.
	j := lr.Join(rr, "k", "k", nil, nil)
	first, err := j.Count()
	if err != nil {
		t.Fatal(err)
	}
	lr.SetJoinStrategy(JoinMerge)
	merged, err := j.Count()
	if err != nil {
		t.Fatal(err)
	}
	lr.SetJoinStrategy(JoinHash)
	hashed, err := j.Count()
	if err != nil {
		t.Fatal(err)
	}
	if first != merged || merged != hashed {
		t.Fatalf("count diverged: first %d, merge %d, hash %d", first, merged, hashed)
	}
}

// TestSteadyStateJoinCountAllocationFree is the join subsystem's
// allocation gate (matching the conjunctive and grouped precedents):
// with pooled scratch and sequential kernels, a warm hash-join Count
// performs zero heap allocations.
func TestSteadyStateJoinCountAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lt, rt := joinFixture(t, 8_000, 4_000, 71)
	lr := New(lt, engine.NewScanExecutor(lt, 1), 1)
	rr := New(rt, engine.NewScanExecutor(rt, 1), 1)
	lr.SetJoinStrategy(JoinHash)
	j := lr.Join(rr, "k", "k",
		[]Predicate{{Attr: "v", Lo: 0, Hi: 900}},
		[]Predicate{{Attr: "v", Lo: 100, Hi: 1000}})
	if _, err := j.Count(); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := j.Count(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state join Count allocates %.2f times per query, want 0", allocs)
	}
}

// BenchmarkJoinCount measures the runner-level hash-join count path;
// ReportAllocs shows the pooled steady state (the CI allocation-report
// step runs it).
func BenchmarkJoinCount(b *testing.B) {
	for _, threads := range []int{1, 4} {
		lt, rt := joinFixture(b, 1<<17, 1<<15, 81)
		lr := New(lt, engine.NewScanExecutor(lt, threads), threads)
		rr := New(rt, engine.NewScanExecutor(rt, threads), threads)
		j := lr.Join(rr, "k", "k", []Predicate{{Attr: "v", Lo: 0, Hi: 900}}, nil)
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			if _, err := j.Count(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.Count(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

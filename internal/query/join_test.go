package query

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/join"
	"holistic/internal/model"
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
	crackCfg := cracking.Config{ParallelWorkers: threads}
	return map[string]*engine.Executor{
		"scan":     engine.NewScanExecutor(tab, threads),
		"offline":  engine.NewOfflineExecutor(tab, threads),
		"adaptive": engine.NewAdaptiveExecutor(tab, crackCfg, ""),
	}
}

// TestJoinMatchesModelAcrossExecutors drives randomized joins (with
// and without per-side predicates) through every executor pairing, on
// the dense key k and on its sparse copy w, comparing Count, Sum and
// Pairs against the model. Each key meets both left-predicate cases and
// both sum sides. Two offline sides merge on w whenever both selections
// are walkable, and never on k, whose build keys the hash table
// addresses directly; a scan side, with no key-ordered path, always
// hashes.
func TestJoinMatchesModelAcrossExecutors(t *testing.T) {
	lt, rt := joinFixture(t, 600, 200, 21)
	wideKey(lt, "k")
	wideKey(rt, "k")
	ml, mr := modelOf(lt), modelOf(rt)
	rng := rand.New(rand.NewSource(22))
	for lName, lExec := range joinExecs(lt, 2) {
		for rName, rExec := range joinExecs(rt, 2) {
			t.Run(lName+"_"+rName, func(t *testing.T) {
				defer lExec.Close()
				defer rExec.Close()
				lr := New(lt, lExec, 2)
				rr := New(rt, rExec, 2)
				ob := observed(lr)
				merged := map[string]int64{}
				for q := 0; q < 16; q++ {
					key := []string{"k", "w"}[q/4%2]
					before := ob.Query.Snapshot().Strategies["join/merge"]
					var lPreds, rPreds []Predicate
					if q%2 == 0 {
						lPreds = []Predicate{{Attr: "v", Lo: 0, Hi: rng.Int63n(900) + 100}}
					}
					if q%3 == 0 {
						rPreds = []Predicate{{Attr: "v", Lo: rng.Int63n(300), Hi: 1000}}
					}
					sumSide := join.Side(q / 2 % 2)
					wantPairs, joined := model.Join(ml, key, ml.Rows(mp(lPreds)), mr, key, mr.Rows(mp(rPreds)))
					wantCount, wantSum := int64(len(wantPairs)), joined.Sum([]string{"l.v", "r.v"}[sumSide], nil)

					j := lr.Join(rr, key, key, lPreds, rPreds)
					n, err := j.Count()
					if err != nil {
						t.Fatal(err)
					}
					if n != wantCount {
						t.Fatalf("q%d: count %d, want %d", q, n, wantCount)
					}
					s, err := j.Sum(sumSide, "v")
					if err != nil {
						t.Fatal(err)
					}
					if s != wantSum {
						t.Fatalf("q%d: sum %d, want %d", q, s, wantSum)
					}
					pl, pr, err := j.Pairs()
					if err != nil {
						t.Fatal(err)
					}
					if len(pl) != len(wantPairs) {
						t.Fatalf("q%d: %d pairs, want %d", q, len(pl), len(wantPairs))
					}
					got := make([][2]uint32, len(pl))
					for i := range pl {
						got[i] = [2]uint32{pl[i], pr[i]}
					}
					sortPairs(got)
					if !slices.Equal(got, wantPairs) {
						t.Fatalf("q%d: pairs differ from the model's", q)
					}
					merged[key] += ob.Query.Snapshot().Strategies["join/merge"] - before
				}
				if lName == "offline" && rName == "offline" && merged["w"] == 0 {
					t.Errorf("two offline sides never merged on w: %v", merged)
				}
				if merged["k"] != 0 {
					t.Errorf("the directly addressed key k merged: %v", merged)
				}
				if (lName == "scan" || rName == "scan") && merged["w"] != 0 {
					t.Errorf("a scan side merged: %v", merged)
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

// TestJoinGroupedMatchesModel checks the join→group pipeline at the
// runner level: group by the left join key, count and sum a right
// attribute.
func TestJoinGroupedMatchesModel(t *testing.T) {
	lt, rt := joinFixture(t, 500, 80, 31)
	lExec := engine.NewAdaptiveExecutor(lt, cracking.Config{}, "")
	rExec := engine.NewOfflineExecutor(rt, 2)
	defer lExec.Close()
	defer rExec.Close()
	lr := New(lt, lExec, 2)
	rr := New(rt, rExec, 2)

	lPreds := []Predicate{{Attr: "v", Lo: 100, Hi: 900}}
	ml, mr := modelOf(lt), modelOf(rt)
	_, joined := model.Join(ml, "k", ml.Rows(mp(lPreds)), mr, "k", mr.Rows(nil))
	wantKeys, wantAggs := joined.Group([]string{"l.k"}, []model.Agg{{Kind: model.Count}, {Kind: model.Sum, Attr: "r.v"}}, joined.Rows(nil))

	res, err := lr.Join(rr, "k", "k", lPreds, nil).Grouped(
		[]GroupKey{{Side: join.Left, Attr: "k"}},
		[]GroupAgg{{Agg: groupby.Count()}, {Side: join.Right, Agg: groupby.Sum("v")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(res.Keys, wantKeys, slices.Equal) || !slices.EqualFunc(res.Aggs, wantAggs, slices.Equal) {
		t.Fatalf("%d groups, model %d, or different ones", res.Len(), len(wantKeys[0]))
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

// newHolistic builds a holistic executor over tab with a fast daemon.
func newHolistic(tab *engine.Table) *engine.Executor {
	return engine.NewHolisticExecutor(tab, engine.HolisticConfig{
		Cracking: cracking.Config{},
		Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 4},
		Contexts: 2,
	})
}

// admitted reports whether attr is in exec's index space: a cracker copy
// exists or the daemon's registry knows it.
func admitted(exec *engine.Executor, attr string) bool {
	return exec.CrackerIfExists(attr) != nil || exec.Daemon().Registry().Get(attr) != nil
}

// TestJoinAdmitsKeysOnlyWhenBothSidesWalkable: under the holistic
// executor a join on the sparse key w admits both join keys when both
// selections are dense enough to walk; with one sparse side it admits
// neither. A join on the dense key k admits neither either: the hash
// table addresses its build keys directly, which no walk beats.
func TestJoinAdmitsKeysOnlyWhenBothSidesWalkable(t *testing.T) {
	lt, rt := joinFixture(t, 400, 100, 51)
	wideKey(lt, "k")
	wideKey(rt, "k")
	dense := []Predicate{{Attr: "v", Lo: 0, Hi: 500}}
	sparse := []Predicate{{Attr: "v", Lo: 0, Hi: 100}}
	for _, tc := range []struct {
		name           string
		key            string
		lPreds, rPreds []Predicate
		want           bool
	}{
		{"both walkable", "w", dense, nil, true},
		{"left sparse", "w", sparse, nil, false},
		{"right sparse", "w", dense, sparse, false},
		{"addressable", "k", dense, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lExec, rExec := newHolistic(lt), newHolistic(rt)
			defer lExec.Close()
			defer rExec.Close()
			lr, rr := New(lt, lExec, 2), New(rt, rExec, 2)
			if _, err := lr.Join(rr, tc.key, tc.key, tc.lPreds, tc.rPreds).Count(); err != nil {
				t.Fatal(err)
			}
			if got := admitted(lExec, tc.key); got != tc.want {
				t.Errorf("left join key admitted = %v, want %v", got, tc.want)
			}
			if got := admitted(rExec, tc.key); got != tc.want {
				t.Errorf("right join key admitted = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestJoinMergeConvergence: offline indexing sorts on demand, so both
// sides have span-1 key-ordered paths and a join on the sparse key w
// over whole relations merges; the same join between scan executors,
// which have no such path, hashes — and both return the same folds.
func TestJoinMergeConvergence(t *testing.T) {
	lt, rt := joinFixture(t, 3000, 500, 61)
	wideKey(lt, "k")
	wideKey(rt, "k")
	var counts, sums []int64
	for _, want := range []string{"merge", "hash"} {
		lExec, rExec := engine.NewOfflineExecutor(lt, 2), engine.NewOfflineExecutor(rt, 2)
		if want == "hash" {
			lExec, rExec = engine.NewScanExecutor(lt, 2), engine.NewScanExecutor(rt, 2)
		}
		j := New(lt, lExec, 2).Join(New(rt, rExec, 2), "w", "w", nil, nil)
		tr, n, err := j.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Strategy != want {
			t.Errorf("%s executors joined by %s, want %s", lExec.Label(), tr.Strategy, want)
		}
		s, err := j.Sum(join.Right, "v")
		if err != nil {
			t.Fatal(err)
		}
		counts, sums = append(counts, n), append(sums, s)
		lExec.Close()
		rExec.Close()
	}
	if counts[0] != counts[1] || sums[0] != sums[1] {
		t.Fatalf("folds diverged: merge (%d, %d), hash (%d, %d)", counts[0], sums[0], counts[1], sums[1])
	}
}

// TestSteadyStateJoinCountAllocationFree is the join subsystem's
// allocation gate (matching the conjunctive and grouped precedents):
// with pooled scratch and sequential kernels, a warm hash-join Count —
// scan executors have no key-ordered path, so they always hash —
// performs zero heap allocations.
func TestSteadyStateJoinCountAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	lt, rt := joinFixture(t, 8_000, 4_000, 71)
	lr := New(lt, engine.NewScanExecutor(lt, 1), 1)
	rr := New(rt, engine.NewScanExecutor(rt, 1), 1)
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

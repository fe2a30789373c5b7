package query

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/obs"
)

// buildTable returns a table of `attrs` uniform columns over [0, domain)
// plus the raw slices for oracle checks.
func buildTable(attrs, rows int, domain int64, seed int64) (*engine.Table, [][]int64) {
	t := engine.NewTable("R")
	cols := make([][]int64, attrs)
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < attrs; i++ {
		vals := make([]int64, rows)
		for j := range vals {
			vals[j] = rng.Int63n(domain)
		}
		cols[i] = vals
		t.MustAddColumn(column.New(names[i], vals))
	}
	return t, cols
}

// oracle computes the qualifying row set by brute force.
func oracle(cols [][]int64, names map[string]int, preds []Predicate) []uint32 {
	if len(preds) == 0 {
		return nil
	}
	n := len(cols[0])
	var out []uint32
rows:
	for i := 0; i < n; i++ {
		for _, p := range preds {
			v := cols[names[p.Attr]][i]
			if v < p.Lo || v >= p.Hi {
				continue rows
			}
		}
		out = append(out, uint32(i))
	}
	return out
}

var names = map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}

// planOrder returns the conjunct order and estimates the pipeline really
// runs with, as ExplainCount reports them.
func planOrder(t *testing.T, r *Runner, preds []Predicate) (order []string, ests []float64) {
	t.Helper()
	tr, _, err := r.ExplainCount(preds)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range tr.Conjuncts {
		if c.Driving != (i == 0) {
			t.Fatalf("conjunct %d (%s) driving = %v", i, c.Attr, c.Driving)
		}
		order, ests = append(order, c.Attr), append(ests, c.EstRows)
	}
	return order, ests
}

func TestPlanOrdersBySelectivity(t *testing.T) {
	tab, _ := buildTable(3, 5000, 1000, 1)
	off := engine.NewOfflineExecutor(tab, 1)
	off.PrepareAll()
	r := New(tab, off, 2)

	order, ests := planOrder(t, r, []Predicate{
		{Attr: "a", Lo: 0, Hi: 900}, // ~90%
		{Attr: "b", Lo: 0, Hi: 10},  // ~1%
		{Attr: "c", Lo: 0, Hi: 300}, // ~30%
	})
	if !slices.Equal(order, []string{"b", "c", "a"}) {
		t.Fatalf("plan order = %v (estimates %v), want b, c, a", order, ests)
	}
	if !slices.IsSorted(ests) {
		t.Fatalf("estimates not ascending: %v", ests)
	}
}

func TestPlanUniformFallback(t *testing.T) {
	tab, _ := buildTable(2, 2000, 1<<20, 2)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	order, _ := planOrder(t, r, []Predicate{
		{Attr: "a", Lo: 0, Hi: 1 << 19}, // half the domain
		{Attr: "b", Lo: 0, Hi: 1 << 10}, // a sliver
	})
	if order[0] != "b" {
		t.Fatalf("uniform fallback drove on %q, want b", order[0])
	}
}

func TestNormalizeIntersectsDuplicates(t *testing.T) {
	tab, cols := buildTable(2, 3000, 1000, 3)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	got, err := r.Count([]Predicate{
		{Attr: "a", Lo: 100, Hi: 700},
		{Attr: "a", Lo: 300, Hi: 900},
		{Attr: "b", Lo: 0, Hi: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(oracle(cols, names, []Predicate{{Attr: "a", Lo: 300, Hi: 700}, {Attr: "b", Lo: 0, Hi: 500}}))
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Contradictory duplicates: empty result, no error.
	if n, err := r.Count([]Predicate{{Attr: "a", Lo: 0, Hi: 100}, {Attr: "a", Lo: 500, Hi: 600}}); err != nil || n != 0 {
		t.Fatalf("contradictory conjuncts = (%d, %v), want (0, nil)", n, err)
	}
}

func TestQueryErrors(t *testing.T) {
	tab, _ := buildTable(1, 100, 1000, 4)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	if _, err := r.Count(nil); err != ErrNoPredicates {
		t.Errorf("Count() err = %v, want ErrNoPredicates", err)
	}
	if _, err := r.Count([]Predicate{{Attr: "zz", Lo: 0, Hi: 1}}); err == nil {
		t.Error("unknown predicate attribute did not error")
	}
	if _, err := r.Sum("zz", []Predicate{{Attr: "a", Lo: 0, Hi: 1}}); err == nil {
		t.Error("unknown sum attribute did not error")
	}
	if _, err := r.Values(nil, []Predicate{{Attr: "a", Lo: 0, Hi: 1}}); err == nil {
		t.Error("Values without attributes did not error")
	}
}

// TestConjunctionMatchesOracle runs randomized conjunctions through the
// scan and adaptive access paths and checks all four query forms.
func TestConjunctionMatchesOracle(t *testing.T) {
	const domain = 1 << 12
	tab, cols := buildTable(4, 6000, domain, 5)
	execs := map[string]*engine.Executor{
		"scan":     engine.NewScanExecutor(tab, 2),
		"adaptive": engine.NewAdaptiveExecutor(tab, cracking.Config{WithRows: true}, ""),
	}
	attrNames := []string{"a", "b", "c", "d"}
	for label, exec := range execs {
		t.Run(label, func(t *testing.T) {
			r := New(tab, exec, 2)
			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 40; q++ {
				k := 2 + rng.Intn(3)
				perm := rng.Perm(4)
				preds := make([]Predicate, k)
				for i := 0; i < k; i++ {
					lo := rng.Int63n(domain)
					preds[i] = Predicate{Attr: attrNames[perm[i]], Lo: lo, Hi: lo + rng.Int63n(domain-lo) + 1}
				}
				want := oracle(cols, names, preds)

				n, err := r.Count(preds)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("query %d: count = %d, want %d (%v)", q, n, len(want), preds)
				}

				rows, err := r.Rows(preds)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want) {
					t.Fatalf("query %d: %d rows, want %d", q, len(rows), len(want))
				}
				for i := range rows {
					if rows[i] != want[i] {
						t.Fatalf("query %d: rows[%d] = %d, want %d", q, i, rows[i], want[i])
					}
				}

				sumAttr := attrNames[rng.Intn(4)]
				sum, err := r.Sum(sumAttr, preds)
				if err != nil {
					t.Fatal(err)
				}
				var wantSum int64
				for _, row := range want {
					wantSum += cols[names[sumAttr]][row]
				}
				if sum != wantSum {
					t.Fatalf("query %d: sum(%s) = %d, want %d", q, sumAttr, sum, wantSum)
				}

				vals, err := r.Values([]string{"a", sumAttr}, preds)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals) != 2 || len(vals[0]) != len(want) {
					t.Fatalf("query %d: Values shape %d/%d, want 2/%d", q, len(vals), len(vals[0]), len(want))
				}
				for i, row := range want {
					if vals[0][i] != cols[0][row] || vals[1][i] != cols[names[sumAttr]][row] {
						t.Fatalf("query %d: Values[%d] mismatch", q, i)
					}
				}
			}
		})
	}
}

// TestSinglePredicateFastPaths: one conjunct behaves exactly like the
// executor's native forms.
func TestSinglePredicateFastPaths(t *testing.T) {
	tab, cols := buildTable(2, 4000, 1000, 6)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	preds := []Predicate{{Attr: "b", Lo: 200, Hi: 600}}
	want := oracle(cols, names, preds)
	if n, err := r.Count(preds); err != nil || n != len(want) {
		t.Fatalf("Count = (%d, %v), want %d", n, err, len(want))
	}
	var wantSum int64
	for _, row := range want {
		wantSum += cols[1][row]
	}
	if s, err := r.Sum("b", preds); err != nil || s != wantSum {
		t.Fatalf("Sum = (%d, %v), want %d", s, err, wantSum)
	}
	rows, err := r.Rows(preds)
	if err != nil || len(rows) != len(want) {
		t.Fatalf("Rows = (%d rows, %v), want %d", len(rows), err, len(want))
	}
}

// allModeExecutors builds one executor per mode of the paper over the
// same table; cracking configurations carry rowids so the row and
// bitmap select forms are answerable.
func allModeExecutors(t *testing.T, tab *engine.Table) map[string]*engine.Executor {
	t.Helper()
	return map[string]*engine.Executor{
		"scan":       engine.NewScanExecutor(tab, 2),
		"offline":    engine.NewOfflineExecutor(tab, 2),
		"online":     engine.NewOnlineExecutor(tab, 2, 10),
		"adaptive":   engine.NewAdaptiveExecutor(tab, cracking.Config{WithRows: true}, ""),
		"stochastic": engine.NewAdaptiveExecutor(tab, cracking.Config{Stochastic: true, WithRows: true, Seed: 5}, "stochastic"),
		"ccgi":       engine.NewCCGIExecutor(tab, 2, 8, cracking.Config{WithRows: true}),
		"holistic": engine.NewHolisticExecutor(tab, engine.HolisticConfig{
			Cracking: cracking.Config{WithRows: true},
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 4, Seed: 3},
			L1Values: 256,
			Contexts: 2,
		}),
	}
}

// TestRepresentationsAgreeAllModes is the representation differential
// test: for every executor mode, randomized conjunctions — every other
// one driven by a conjunct kept at 1% or 50% of the domain, so the
// crossover picks each representation — must return the oracle's result
// for every query form, and both representations must have run.
func TestRepresentationsAgreeAllModes(t *testing.T) {
	const domain = 1 << 12
	tab, cols := buildTable(4, 6000, domain, 15)
	execs := allModeExecutors(t, tab)
	attrNames := []string{"a", "b", "c", "d"}
	for label, exec := range execs {
		t.Run(label, func(t *testing.T) {
			defer exec.Close()
			r := New(tab, exec, 2)
			ob := observed(r)
			rng := rand.New(rand.NewSource(17))
			for q := 0; q < 60; q++ {
				k := 2 + rng.Intn(3)
				perm := rng.Perm(4)
				preds := make([]Predicate, k)
				for i := 0; i < k; i++ {
					lo := rng.Int63n(domain)
					preds[i] = Predicate{Attr: attrNames[perm[i]], Lo: lo, Hi: lo + rng.Int63n(domain-lo) + 1}
				}
				if q%2 == 0 { // a fixed drive, the residuals kept wide
					width := []int64{domain / 100, domain / 2}[q/2%2]
					lo := rng.Int63n(domain - width)
					preds[0] = Predicate{Attr: preds[0].Attr, Lo: lo, Hi: lo + width}
					for i := 1; i < k; i++ {
						preds[i].Lo, preds[i].Hi = preds[i].Lo/8, domain
					}
				}
				want := oracle(cols, names, preds)
				sumAttr := attrNames[rng.Intn(4)]
				var wantSum int64
				for _, row := range want {
					wantSum += cols[names[sumAttr]][row]
				}

				n, err := r.Count(preds)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("query %d: count = %d, want %d (%v)", q, n, len(want), preds)
				}
				rows, err := r.Rows(preds)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want) {
					t.Fatalf("query %d: %d rows, want %d", q, len(rows), len(want))
				}
				for i := range rows {
					if rows[i] != want[i] {
						t.Fatalf("query %d: rows[%d] = %d, want %d", q, i, rows[i], want[i])
					}
				}
				sum, err := r.Sum(sumAttr, preds)
				if err != nil {
					t.Fatal(err)
				}
				if sum != wantSum {
					t.Fatalf("query %d: sum(%s) = %d, want %d", q, sumAttr, sum, wantSum)
				}
				vals, err := r.Values([]string{sumAttr}, preds)
				if err != nil {
					t.Fatal(err)
				}
				if len(vals[0]) != len(want) {
					t.Fatalf("query %d: Values len %d, want %d", q, len(vals[0]), len(want))
				}
				for i, row := range want {
					if vals[0][i] != cols[names[sumAttr]][row] {
						t.Fatalf("query %d: Values[%d] mismatch", q, i)
					}
				}
			}
			reps := ob.Query.Snapshot().Representations
			if reps["poslist"] == 0 || reps["bitmap"] == 0 {
				t.Errorf("the crossover did not pick both representations: %v", reps)
			}
		})
	}
}

// TestChooseBitmapCrossover: chooseRep picks the representation from
// the driving conjunct's estimated selectivity against the crossover.
func TestChooseBitmapCrossover(t *testing.T) {
	const domain = 1 << 20
	tab, _ := buildTable(2, 10_000, domain, 19)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	sc := r.getScratch()
	defer r.putScratch(sc)

	dense := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2}, // ~50% drives
		{Attr: "b", Lo: 0, Hi: domain - 1},
	}
	sparse := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 1024}, // ~0.1% drives
		{Attr: "b", Lo: 0, Hi: domain - 1},
	}
	single := []Predicate{{Attr: "a", Lo: 0, Hi: domain / 2}}

	if empty, err := r.planScratch(sc, dense); err != nil || empty {
		t.Fatal(err)
	}
	chooseBitmap := func(sc *scratch) bool { rep, _ := r.chooseRep(sc); return rep == obs.RepBitmap }
	if !chooseBitmap(sc) {
		t.Error("dense drive did not choose bitmap")
	}

	if empty, err := r.planScratch(sc, sparse); err != nil || empty {
		t.Fatal(err)
	}
	if chooseBitmap(sc) {
		t.Error("sparse drive chose bitmap")
	}
	// Either side of the crossover: a drive at twice it picks the bitmap,
	// one at half of it the position list.
	for _, frac := range []float64{2 * DefaultBitmapCrossover, DefaultBitmapCrossover / 2} {
		preds := []Predicate{{Attr: "a", Lo: 0, Hi: int64(frac * domain)}, {Attr: "b", Lo: 0, Hi: domain - 1}}
		if empty, err := r.planScratch(sc, preds); err != nil || empty {
			t.Fatal(err)
		}
		if got, want := chooseBitmap(sc), frac > DefaultBitmapCrossover; got != want {
			t.Errorf("drive at %.0f%% selectivity: bitmap %v, want %v", 100*frac, got, want)
		}
	}

	if empty, err := r.planScratch(sc, single); err != nil || empty {
		t.Fatal(err)
	}
	if chooseBitmap(sc) {
		t.Error("single conjunct chose bitmap")
	}
}

// TestSteadyStateCountSumAllocationFree: with sequential kernels the
// bitmap-path Count and Sum allocate nothing per query once the pooled
// scratch is warm — the tentpole's acceptance criterion.
func TestSteadyStateCountSumAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab, _ := buildTable(3, 1<<15, domain, 23)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: domain / 4, Hi: domain},
		{Attr: "c", Lo: 0, Hi: 3 * domain / 4},
	}
	// Warm the scratch pool and verify the plan picks the bitmap.
	if _, err := r.Count(preds); err != nil {
		t.Fatal(err)
	}
	sc := r.getScratch()
	if empty, err := r.planScratch(sc, preds); err != nil || empty {
		t.Fatal(err)
	}
	if rep, _ := r.chooseRep(sc); rep != obs.RepBitmap {
		t.Fatal("steady-state test expects the bitmap path")
	}
	r.putScratch(sc)

	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Count(preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state Count allocates %.2f times per query, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := r.Sum("c", preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state Sum allocates %.2f times per query, want 0", allocs)
	}
	// The other three terminals share the body: MinMax folds off the bits
	// like Sum, and the materializing forms allocate what they return —
	// the row list; the column table and one slice per attribute — and
	// nothing else.
	project := []string{"c", "a"}
	for name, tc := range map[string]struct {
		run  func() error
		want float64
	}{
		"MinMax": {func() error { _, _, _, err := r.MinMax("b", preds[:2]); return err }, 0},
		"Rows":   {func() error { _, err := r.Rows(preds); return err }, 1},
		"Values": {func() error { _, err := r.Values(project, preds); return err }, 3},
	} {
		if err := tc.run(); err != nil { // warm
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.want+0.5 {
			t.Errorf("steady-state %s allocates %.2f times per query, want %.0f", name, allocs, tc.want)
		}
	}
}

// TestSteadyStateCrackerAllocationFree is the allocation bar over cracker
// columns, whichever way they store their tuples: a table whose values fit
// one packing window and the same table with the int64 extremes added,
// which cannot pack. Once the bounds are piece boundaries, Count and Sum
// through the bitmap path — rowids decoded from packed words a stack
// chunk at a time, or read from the rowid array — allocate nothing.
func TestSteadyStateCrackerAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	for _, extremes := range [][]int64{nil, {math.MinInt64, math.MaxInt64}} {
		tab := engine.NewTable("R")
		rng := rand.New(rand.NewSource(29))
		for _, name := range []string{"a", "b", "c"} {
			vals := append([]int64(nil), extremes...)
			for len(vals) < 1<<15 {
				vals = append(vals, rng.Int63n(domain))
			}
			tab.MustAddColumn(column.New(name, vals))
		}
		exec := engine.NewAdaptiveExecutor(tab, cracking.Config{WithRows: true}, "adaptive")
		r := New(tab, exec, 1)
		preds := []Predicate{
			{Attr: "a", Lo: 0, Hi: domain / 2},
			{Attr: "b", Lo: domain / 4, Hi: domain},
			{Attr: "c", Lo: 0, Hi: 3 * domain / 4},
		}
		// The extremes stretch the planner's uniform guess, which sends
		// an uncracked table down the position-list path. A count per
		// attribute cracks all three; the estimates are exact from then
		// on, and the 50% drive picks the bitmap.
		for _, p := range preds {
			if _, err := r.Count([]Predicate{p}); err != nil {
				t.Fatal(err)
			}
		}
		sc := r.getScratch()
		if empty, err := r.planScratch(sc, preds); err != nil || empty {
			t.Fatal(err)
		}
		if rep, _ := r.chooseRep(sc); rep != obs.RepBitmap {
			t.Fatalf("extremes %v: cracked conjunctions chose %v, want the bitmap path", extremes, rep)
		}
		r.putScratch(sc)
		for name, run := range map[string]func() error{
			"Count": func() error { _, err := r.Count(preds); return err },
			"Sum":   func() error { _, err := r.Sum("c", preds); return err },
		} {
			if err := run(); err != nil { // cracks, and warms the scratch pool
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}); allocs > 0.5 {
				t.Errorf("extremes %v: steady-state %s over crackers allocates %.2f times per query, want 0", extremes, name, allocs)
			}
		}
		if exec.TotalPieces() == 0 {
			t.Fatal("no conjunct went through a cracker column")
		}
	}
}

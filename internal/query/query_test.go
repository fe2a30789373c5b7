package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/model"
	"holistic/internal/obs"
)

// buildTable returns a table of `attrs` uniform columns over [0, domain).
func buildTable(attrs, rows int, domain int64, seed int64) *engine.Table {
	t := engine.NewTable("R")
	rng := rand.New(rand.NewSource(seed))
	for _, name := range []string{"a", "b", "c", "d"}[:attrs] {
		vals := make([]int64, rows)
		for j := range vals {
			vals[j] = rng.Int63n(domain)
		}
		t.MustAddColumn(column.New(name, vals))
	}
	return t
}

// modelOf is the reference for tab: its columns as they stand.
func modelOf(tab *engine.Table) *model.Table {
	var cols [][]int64
	for _, name := range tab.ColumnNames() {
		cols = append(cols, tab.Column(name).Values())
	}
	return model.New(tab.ColumnNames(), cols...)
}

// mp converts predicates for the model.
func mp(preds []Predicate) []model.Pred {
	out := make([]model.Pred, len(preds))
	for i, p := range preds {
		out[i] = model.Pred(p)
	}
	return out
}

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
	tab := buildTable(3, 5000, 1000, 1)
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
	tab := buildTable(2, 2000, 1<<20, 2)
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
	tab := buildTable(2, 3000, 1000, 3)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	got, err := r.Count([]Predicate{
		{Attr: "a", Lo: 100, Hi: 700},
		{Attr: "a", Lo: 300, Hi: 900},
		{Attr: "b", Lo: 0, Hi: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := modelOf(tab).Count([]model.Pred{{Attr: "a", Lo: 300, Hi: 700}, {Attr: "b", Lo: 0, Hi: 500}})
	if got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Contradictory duplicates: empty result, no error.
	if n, err := r.Count([]Predicate{{Attr: "a", Lo: 0, Hi: 100}, {Attr: "a", Lo: 500, Hi: 600}}); err != nil || n != 0 {
		t.Fatalf("contradictory conjuncts = (%d, %v), want (0, nil)", n, err)
	}
}

func TestQueryErrors(t *testing.T) {
	tab := buildTable(1, 100, 1000, 4)
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

// allModeExecutors builds one executor per mode of the paper over the
// same table; cracking configurations carry rowids so the row and
// bitmap select forms are answerable.
func allModeExecutors(t *testing.T, tab *engine.Table) map[string]*engine.Executor {
	t.Helper()
	return map[string]*engine.Executor{
		"scan":       engine.NewScanExecutor(tab, 2),
		"offline":    engine.NewOfflineExecutor(tab, 2),
		"online":     engine.NewOnlineExecutor(tab, 2, 10),
		"adaptive":   engine.NewAdaptiveExecutor(tab, cracking.Config{}, ""),
		"stochastic": engine.NewAdaptiveExecutor(tab, cracking.Config{Stochastic: true, Seed: 5}, "stochastic"),
		"ccgi":       engine.NewCCGIExecutor(tab, 2, 8, cracking.Config{}),
		"holistic": engine.NewHolisticExecutor(tab, engine.HolisticConfig{
			Cracking: cracking.Config{},
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 4, Seed: 3},
			L1Values: 256,
			Contexts: 2,
		}),
	}
}

// TestRepresentationsAgreeAllModes is the representation differential
// test: for every executor mode, randomized conjunctions — every other
// one driven by a conjunct kept at 1% or 50% of the domain, so the
// crossover picks each representation — must return the model's result
// for every query form, and both representations must have run.
func TestRepresentationsAgreeAllModes(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(4, 6000, domain, 15)
	m := modelOf(tab)
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
				checkTerminals(t, fmt.Sprintf("query %d", q), r, m, preds, attrNames[rng.Intn(4)])
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
	tab := buildTable(2, 10_000, domain, 19)
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
	// A dense single conjunct takes the bitmap too: its rows come out
	// ascending, with no sort.
	if !chooseBitmap(sc) {
		t.Error("dense single conjunct did not choose bitmap")
	}
}

// TestSteadyStateCountSumAllocationFree: with sequential kernels the
// bitmap-path Count and Sum allocate nothing per query once the pooled
// scratch is warm, whether the residual conjuncts are probed or selected
// through their own index.
func TestSteadyStateCountSumAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab := buildTable(3, 1<<15, domain, 23)
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
	// Residuals selected through their own crackers, cracked on their
	// bounds: the bitmap they are selected into is pooled scratch too.
	exec := engine.NewAdaptiveExecutor(tab, cracking.Config{}, "")
	defer exec.Close()
	ad := New(tab, exec, 1)
	for _, p := range preds {
		if _, err := ad.Count([]Predicate{p}); err != nil {
			t.Fatal(err)
		}
	}
	tr, _, err := ad.ExplainCount(preds)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Conjuncts[1:] {
		if c.Applied != "index" {
			t.Fatalf("residual %s applied by %q, want the index:\n%s", c.Attr, c.Applied, tr)
		}
	}
	for name, run := range map[string]func() error{
		"Count": func() error { _, err := ad.Count(preds); return err },
		"Sum":   func() error { _, err := ad.Sum("c", preds); return err },
	} {
		if err := run(); err != nil { // warms the scratch pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0.5 {
			t.Errorf("steady-state %s with residuals through their index allocates %.2f times per query, want 0", name, allocs)
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
		exec := engine.NewAdaptiveExecutor(tab, cracking.Config{}, "adaptive")
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

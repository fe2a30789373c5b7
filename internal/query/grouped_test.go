package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/model"
)

// checkGrouped compares a grouped result with the model's grouping of
// the rows passing preds.
func checkGrouped(t *testing.T, res *groupby.Result, m *model.Table, keys []string, aggs []groupby.Agg, preds []Predicate, ctx string) {
	t.Helper()
	var maggs []model.Agg
	for _, a := range aggs {
		kind := [...]model.Kind{groupby.KindCount: model.Count, groupby.KindSum: model.Sum, groupby.KindMin: model.Min, groupby.KindMax: model.Max}[a.Kind]
		maggs = append(maggs, model.Agg{Kind: kind, Attr: a.Attr})
	}
	wantKeys, wantAggs := m.Group(keys, maggs, m.Rows(mp(preds)))
	if !slices.EqualFunc(res.Keys, wantKeys, slices.Equal) || !slices.EqualFunc(res.Aggs, wantAggs, slices.Equal) {
		t.Fatalf("%s: %d groups, model %d, or different ones (strategy %v)", ctx, res.Len(), len(wantKeys[0]), res.Strategy)
	}
}

// TestGroupedMatchesModelAllModes is the grouped differential test:
// randomized key sets, fused aggregate lists and predicate sets run
// through every executor mode, checked against the model.
// Single narrow keys group dense, composites hash, and the wide key w
// hashes until its mode has a refined key-ordered path to walk.
func TestGroupedMatchesModelAllModes(t *testing.T) {
	const domain = 1 << 10
	tab := buildTable(4, 5000, domain, 29)
	wideKey(tab, "a")
	m := modelOf(tab)
	execs := allModeExecutors(t, tab)
	attrNames := []string{"a", "b", "c", "d"}
	for label, exec := range execs {
		t.Run(label, func(t *testing.T) {
			defer exec.Close()
			r := New(tab, exec, 2)
			rng := rand.New(rand.NewSource(31))
			for q := 0; q < 50; q++ {
				perm := rng.Perm(4)
				nk := 1 + rng.Intn(2)
				keys := make([]string, nk)
				for i := range keys {
					keys[i] = attrNames[perm[i]]
				}
				if q%3 == 0 {
					keys = []string{"w"}
				}
				aggAttr := attrNames[perm[nk%4]]
				aggs := []groupby.Agg{groupby.Count(), groupby.Sum(aggAttr), groupby.Min(aggAttr), groupby.Max(aggAttr)}
				np := rng.Intn(3)
				preds := make([]Predicate, np)
				for i := range preds {
					lo := rng.Int63n(domain)
					preds[i] = Predicate{Attr: attrNames[rng.Intn(4)], Lo: lo, Hi: lo + rng.Int63n(domain-lo) + 1}
				}
				res, err := r.Grouped(keys, aggs, preds)
				if err != nil {
					t.Fatal(err)
				}
				checkGrouped(t, res, m, keys, aggs, preds, label)
			}
		})
	}
}

// wideKey adds attribute w to tab: src's values spread 2^20 apart, a key
// with src's groups whose domain is too wide to pack densely.
func wideKey(tab *engine.Table, src string) {
	vals := make([]int64, tab.Rows())
	for i, v := range tab.Column(src).Values() {
		vals[i] = v << 20
	}
	tab.MustAddColumn(column.New("w", vals))
}

// TestGroupedSortStrategyRuns: a single key too wide to pack densely,
// over a selection dense enough to walk, groups by sort wherever its
// key-ordered access path has clusters that fit the accumulator — at
// once under offline indexing, which sorts on demand — and agrees with
// the model; without such a path it hashes, not fails.
func TestGroupedSortStrategyRuns(t *testing.T) {
	const domain = 1 << 17 // 17 bits: one past the dense slot bound
	tab := buildTable(2, 4000, domain, 37)
	m := modelOf(tab)
	off := engine.NewOfflineExecutor(tab, 2)
	r := New(tab, off, 2)
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum("b")}
	preds := []Predicate{{Attr: "b", Lo: 0, Hi: domain / 2}}
	res, err := r.Grouped([]string{"a"}, aggs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != groupby.StrategySort {
		t.Fatalf("offline strategy = %v, want sort", res.Strategy)
	}
	checkGrouped(t, res, m, []string{"a"}, aggs, preds, "offline")

	// Adaptive: no cracker on "a" yet → no key-ordered path → hash.
	ad := engine.NewAdaptiveExecutor(tab, cracking.Config{}, "")
	ra := New(tab, ad, 2)
	res2, err := ra.Grouped([]string{"a"}, aggs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Strategy == groupby.StrategySort {
		t.Fatal("sort strategy ran without a key-ordered access path")
	}
	checkGrouped(t, res2, m, []string{"a"}, aggs, preds, "adaptive-fallback")

	// After a select drives on "a", the cracker exists and its pieces
	// span fewer values than the accumulator bound: sort walks it.
	if _, err := ra.Count([]Predicate{{Attr: "a", Lo: domain / 4, Hi: domain / 2}}); err != nil {
		t.Fatal(err)
	}
	res3, err := ra.Grouped([]string{"a"}, aggs, preds)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Strategy != groupby.StrategySort {
		t.Fatalf("adaptive strategy after a crack = %v, want sort", res3.Strategy)
	}
	checkGrouped(t, res3, m, []string{"a"}, aggs, preds, "adaptive-sort")
}

// TestGroupedAdmitsOnlySortableKeys: under the holistic executor a
// grouped query admits its key only when the walk rule could one day pass
// it — a single key, not dense-eligible, over a dense selection.
// Dense-eligible and composite keys are never admitted, with or without
// predicates.
func TestGroupedAdmitsOnlySortableKeys(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(4, 4000, domain, 71)
	wide := func(seed int64) []int64 { // a key domain too wide to bit-pack densely
		rng := rand.New(rand.NewSource(seed))
		out := make([]int64, tab.Rows())
		for i := range out {
			out[i] = rng.Int63n(1 << 24)
		}
		return out
	}
	small := func(src string, mod int64) []int64 {
		out := make([]int64, tab.Rows())
		for i, v := range tab.Column(src).Values() {
			out[i] = v % mod
		}
		return out
	}
	tab.MustAddColumn(column.New("g", small("c", 16)))
	tab.MustAddColumn(column.New("h", small("d", 8)))
	tab.MustAddColumn(column.New("w1", wide(1)))
	tab.MustAddColumn(column.New("w2", wide(2)))
	exec := newHolistic(tab)
	defer exec.Close()
	r := New(tab, exec, 2)
	aggs := []groupby.Agg{groupby.Count()}
	dense := []Predicate{{Attr: "a", Lo: 0, Hi: domain / 2}, {Attr: "b", Lo: 0, Hi: 3 * domain / 4}}
	sparse := []Predicate{{Attr: "a", Lo: 0, Hi: domain / 16}}

	for _, step := range []struct {
		name  string
		keys  []string
		preds []Predicate
		want  bool
	}{
		{"dense-eligible key, no predicates", []string{"g"}, nil, false},
		{"dense-eligible key, predicates", []string{"g"}, dense, false},
		{"dense-eligible composite key, no predicates", []string{"g", "h"}, nil, false},
		{"dense-eligible composite key, predicates", []string{"h", "g"}, dense, false},
		{"wide composite key", []string{"w1", "w2"}, nil, false},
		{"wide key, sparse selection", []string{"w1"}, sparse, false},
		{"wide key, dense selection", []string{"w1"}, dense, true},
		{"wide key, no predicates", []string{"w2"}, nil, true},
	} {
		if _, err := r.Grouped(step.keys, aggs, step.preds); err != nil {
			t.Fatal(err)
		}
		for _, k := range step.keys {
			if got := admitted(exec, k); got != step.want {
				t.Errorf("%s: key %s admitted = %v, want %v", step.name, k, got, step.want)
			}
		}
	}
	// The range conjuncts, driving and residual, are always admitted.
	for _, attr := range []string{"a", "b"} {
		if !admitted(exec, attr) {
			t.Errorf("range attribute %s not admitted", attr)
		}
	}
}

// TestGroupedNoPredicates groups the whole relation.
func TestGroupedNoPredicates(t *testing.T) {
	tab := buildTable(2, 3000, 64, 41)
	r := New(tab, engine.NewScanExecutor(tab, 2), 2)
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum("b")}
	res, err := r.Grouped([]string{"a"}, aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGrouped(t, res, modelOf(tab), []string{"a"}, aggs, nil, "no-preds")
}

// TestGroupedErrors covers the validation paths.
func TestGroupedErrors(t *testing.T) {
	tab := buildTable(2, 100, 64, 43)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	if _, err := r.Grouped(nil, []groupby.Agg{groupby.Count()}, nil); err == nil {
		t.Error("no keys did not error")
	}
	if _, err := r.Grouped([]string{"a"}, nil, nil); err == nil {
		t.Error("no aggregates did not error")
	}
	if _, err := r.Grouped([]string{"zz"}, []groupby.Agg{groupby.Count()}, nil); err == nil {
		t.Error("unknown key did not error")
	}
	if _, err := r.Grouped([]string{"a", "a"}, []groupby.Agg{groupby.Count()}, nil); err == nil {
		t.Error("duplicate key did not error")
	}
	if _, err := r.Grouped([]string{"a"}, []groupby.Agg{groupby.Sum("zz")}, nil); err == nil {
		t.Error("unknown aggregate attribute did not error")
	}
	// Contradictory predicates: empty result with the right shape.
	res, err := r.Grouped([]string{"a"}, []groupby.Agg{groupby.Count()}, []Predicate{
		{Attr: "b", Lo: 10, Hi: 20}, {Attr: "b", Lo: 30, Hi: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || len(res.Keys) != 1 || len(res.Aggs) != 1 {
		t.Fatalf("contradictory grouped query = %d groups, shape %d/%d", res.Len(), len(res.Keys), len(res.Aggs))
	}
}

// TestRepeatedAttributeIntersection is the property test of the
// duplicate-conjunct normalization: any set of overlapping, disjoint or
// inverted ranges on one attribute must behave exactly like the single
// merged predicate — across every executor mode and whichever
// selection-vector representation the drive picks, for every query form.
func TestRepeatedAttributeIntersection(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(2, 4000, domain, 59)
	m := modelOf(tab)
	execs := allModeExecutors(t, tab)
	for label, exec := range execs {
		t.Run(label, func(t *testing.T) {
			defer exec.Close()
			r := New(tab, exec, 2)
			rng := rand.New(rand.NewSource(61))
			for trial := 0; trial < 40; trial++ {
				nr := 2 + rng.Intn(3)
				preds := make([]Predicate, 0, nr+1)
				mLo, mHi := int64(0), int64(domain)
				for i := 0; i < nr; i++ {
					var lo, hi int64
					switch rng.Intn(4) {
					case 0: // wide overlapping
						lo, hi = rng.Int63n(domain/4), domain/2+rng.Int63n(domain/2)
					case 1: // narrow
						lo = rng.Int63n(domain)
						hi = lo + rng.Int63n(domain/8) + 1
					case 2: // potentially disjoint from earlier ranges
						lo = rng.Int63n(domain)
						hi = lo + rng.Int63n(domain/2)
					default: // inverted (empty)
						hi = rng.Int63n(domain)
						lo = hi + 1 + rng.Int63n(16)
					}
					preds = append(preds, Predicate{Attr: "a", Lo: lo, Hi: hi})
					if lo > mLo {
						mLo = lo
					}
					if hi < mHi {
						mHi = hi
					}
				}
				// Sometimes add a second-attribute conjunct so both the
				// single- and multi-predicate paths are exercised.
				var extra []Predicate
				if rng.Intn(2) == 0 {
					lo := rng.Int63n(domain / 2)
					extra = []Predicate{{Attr: "b", Lo: lo, Hi: lo + rng.Int63n(domain-lo) + 1}}
					preds = append(preds, extra...)
				}
				merged := append([]Predicate{{Attr: "a", Lo: mLo, Hi: mHi}}, extra...)
				checkTerminals(t, fmt.Sprintf("trial %d repeated", trial), r, m, preds, "b")
				checkTerminals(t, fmt.Sprintf("trial %d merged", trial), r, m, merged, "b")
			}
		})
	}
}

// TestSteadyStateGroupedAllocationFree: the dense grouped path through
// pooled scratch and a reused result allocates nothing per query — the
// tentpole's allocation bar, matching the conjunctive count/sum one.
func TestSteadyStateGroupedAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab := buildTable(3, 1<<15, domain, 67)
	// Key domain small: overwrite column a with group ids.
	keyVals := tab.Column("a").Values()
	for i := range keyVals {
		keyVals[i] = keyVals[i] % 61
	}
	// The wide key the hash half below groups by: every column is added
	// before the executor is built.
	wideKey(tab, "a")
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	keys := []string{"a"}
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum("c"), groupby.Min("c"), groupby.Max("c")}
	preds := []Predicate{
		{Attr: "b", Lo: 0, Hi: domain / 2},
		{Attr: "c", Lo: domain / 8, Hi: domain},
	}
	var res groupby.Result
	if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != groupby.StrategyDense {
		t.Fatalf("steady-state test expects the dense strategy, got %v", res.Strategy)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state grouped query allocates %.2f times per query, want 0", allocs)
	}
	// The no-predicate grouped form shares the pooled path.
	if err := r.GroupedInto(&res, keys, aggs, nil); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := r.GroupedInto(&res, keys, aggs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state whole-relation grouped query allocates %.2f times per query, want 0", allocs)
	}
	// So do the hash accumulators, once their table and group columns
	// have grown: the same 61 groups spread 2^20 apart cannot pack.
	keys = []string{"w"}
	if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != groupby.StrategyHash {
		t.Fatalf("wide key ran %v, want hash", res.Strategy)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state hash grouped query allocates %.2f times per query, want 0", allocs)
	}
}

// TestMinMaxKernels sanity-checks the column MinMax operator directly,
// in both representations.
func TestMinMaxKernels(t *testing.T) {
	vals := []int64{5, -3, 8, 0, 7}
	sel := column.PosList{1, 2, 4}
	bm := column.NewBitmap(len(vals))
	for _, p := range sel {
		bm.Set(p)
	}
	w := column.View{Base: vals}
	for name, s := range map[string]*column.Selection{"rows": {Rows: sel}, "bitmap": {Bits: bm, Dense: true}} {
		if mn, mx, n := w.MinMax(s); mn != -3 || mx != 8 || n != 3 {
			t.Fatalf("View.MinMax over %s = (%d,%d,%d)", name, mn, mx, n)
		}
	}
}

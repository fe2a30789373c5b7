package query

import (
	"fmt"
	"testing"

	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
)

// benchRunner builds a scan-mode runner over a 2^20-row, 3-attribute
// table (buildTable, shared with the tests): the steady-state
// conjunctive hot path with no index mutation noise, so allocs/op
// isolates the query pipeline itself. The predicates drive at 25%, on
// the bitmap side of the crossover.
func benchRunner(b *testing.B, threads int) (*Runner, []Predicate) {
	b.Helper()
	tab := buildTable(3, 1<<20, benchDomain, 42)
	return New(tab, engine.NewScanExecutor(tab, threads), threads), benchDrive(benchDomain / 4)
}

const benchDomain = 1 << 20

// benchDrive is the three-conjunct shape whose driving conjunct keeps
// [0, drive) of the domain: the crossover rule turns a 1% drive into a
// position list and a 25% one into a bitmap.
func benchDrive(drive int64) []Predicate {
	return []Predicate{
		{Attr: "a", Lo: 0, Hi: drive},
		{Attr: "b", Lo: benchDomain / 8, Hi: benchDomain}, // ~88%
		{Attr: "c", Lo: 0, Hi: 9 * benchDomain / 10},      // 90%
	}
}

// benchDrives are the driving selectivities the conjunctive benchmarks
// sweep, one on each side of the crossover.
var benchDrives = []struct {
	name  string
	drive int64
}{{"drive=1%", benchDomain / 100}, {"drive=25%", benchDomain / 4}}

// BenchmarkConjunctiveCount measures the three-conjunct count pipeline
// per driving selectivity. With ReportAllocs the 25% rows show the
// bitmap's allocation-free steady state; the 1% rows pay the position
// list's driving materialization. The residuals=index row runs the 25%
// shape over crackers cracked on every conjunct's bounds, where the
// residuals are selected through their own index instead of probed.
func BenchmarkConjunctiveCount(b *testing.B) {
	count := func(b *testing.B, r *Runner, preds []Predicate) {
		if _, err := r.Count(preds); err != nil { // warm pools
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Count(preds); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, threads := range []int{1, 4} {
		r, _ := benchRunner(b, threads)
		for _, d := range benchDrives {
			b.Run(fmt.Sprintf("%s/threads=%d", d.name, threads), func(b *testing.B) { count(b, r, benchDrive(d.drive)) })
		}
	}
	tab := buildTable(3, 1<<20, benchDomain, 42)
	exec := engine.NewAdaptiveExecutor(tab, cracking.Config{}, "")
	defer exec.Close()
	r, preds := New(tab, exec, 1), benchDrive(benchDomain/4)
	for _, p := range preds {
		if _, err := r.Count([]Predicate{p}); err != nil {
			b.Fatal(err)
		}
	}
	if tr, _, err := r.ExplainCount(preds); err != nil || tr.Conjuncts[1].Applied != "index" || tr.Conjuncts[2].Applied != "index" {
		b.Fatalf("residuals not selected through their index (%v):\n%v", err, tr)
	}
	b.Run("drive=25%/residuals=index/threads=1", func(b *testing.B) { count(b, r, preds) })
}

// benchGroupedRunner builds a scan-mode runner whose first attribute is
// a small-domain group key, so the dense strategy applies, and whose w
// holds the same 97 groups too far apart to pack, so hash applies.
func benchGroupedRunner(b *testing.B, threads int) (*Runner, []Predicate) {
	b.Helper()
	const domain = 1 << 20
	tab := buildTable(3, 1<<20, domain, 71)
	keyVals := tab.Column("a").Values()
	for i := range keyVals {
		keyVals[i] %= 97
	}
	wideKey(tab, "a")
	r := New(tab, engine.NewScanExecutor(tab, threads), threads)
	preds := []Predicate{
		{Attr: "b", Lo: 0, Hi: domain / 2},
		{Attr: "c", Lo: domain / 8, Hi: domain},
	}
	return r, preds
}

// BenchmarkGroupedCount measures the dense grouped count pipeline: with
// a reused result and pooled scratch the steady state reports 0
// allocs/op (the subsystem's allocation bar, enforced by
// TestSteadyStateGroupedAllocationFree).
func BenchmarkGroupedCount(b *testing.B) {
	for _, threads := range []int{1, 4} {
		r, preds := benchGroupedRunner(b, threads)
		b.Run(fmt.Sprintf("dense/threads=%d", threads), func(b *testing.B) {
			keys := []string{"a"}
			aggs := []groupby.Agg{groupby.Count()}
			var res groupby.Result
			if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupedSum is BenchmarkGroupedCount with the full fused
// aggregate set (count, sum, min, max) and a strategy comparison: the
// same groups under a packable key and a wide one.
func BenchmarkGroupedSum(b *testing.B) {
	r, preds := benchGroupedRunner(b, 1)
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum("c"), groupby.Min("c"), groupby.Max("c")}
	for _, strat := range []struct {
		name string
		key  string
	}{{"dense", "a"}, {"hash", "w"}} {
		keys := []string{strat.key}
		b.Run(strat.name, func(b *testing.B) {
			var res groupby.Result
			if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConjunctiveSum is BenchmarkConjunctiveCount with a late
// aggregate fold over the third attribute.
func BenchmarkConjunctiveSum(b *testing.B) {
	r, _ := benchRunner(b, 1)
	for _, d := range benchDrives {
		preds := benchDrive(d.drive)
		b.Run(d.name, func(b *testing.B) {
			if _, err := r.Sum("c", preds); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Sum("c", preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

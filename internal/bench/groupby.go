package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/obs/observer"
	"holistic/internal/query"
	"holistic/internal/workload"
)

func init() {
	register("groupby", "Grouped aggregation: holistic vs adaptive runner, hash grouping turning index-clustered (sort) as the daemon refines the key (new)", runGroupBy)
}

// ranStrategies names the strategies an observer counted between two
// snapshots of its strategy counts — what a cell's queries actually ran
// — subsystem prefixes dropped, in a fixed order.
func ranStrategies(before, after map[string]int64) string {
	var ran []string
	for k, n := range after {
		if n > before[k] {
			ran = append(ran, k[strings.IndexByte(k, '/')+1:])
		}
	}
	sort.Strings(ran)
	return strings.Join(ran, "+")
}

// groupByCell times q grouped count+sum queries through one runner on
// auto, returning ns/query, the group count, the strategies its observer
// saw run, and a checksum over keys and aggregates.
func groupByCell(r *query.Runner, ob *observer.Observer, keys []string, aggs []groupby.Agg, preds []query.Predicate, q int) (perQuery time.Duration, groups int, ran string, checksum int64, err error) {
	var res groupby.Result
	// One warm-up query fills the pooled scratch before measuring.
	if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
		return 0, 0, "", 0, err
	}
	before := ob.Query.Snapshot().Strategies
	start := time.Now()
	for i := 0; i < q; i++ {
		if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
			return 0, 0, "", 0, err
		}
		for g := 0; g < res.Len(); g++ {
			checksum += res.Keys[0][g]*7 + res.Aggs[0][g]*3 + res.Aggs[1][g]
		}
	}
	perQuery = time.Since(start) / time.Duration(q)
	return perQuery, res.Len(), ranStrategies(before, ob.Query.Snapshot().Strategies), checksum, nil
}

// runGroupBy is the groupby experiment: grouped aggregation over a
// skewed group-key attribute whose domain is too wide for the dense
// strategy, through two runners over the same table, both left to the
// planner: one holistic, one adaptive. Neither can do better than hash
// at first. The adaptive runner hashes for good — its predicates crack
// another attribute, and no daemon ever refines the key — while the
// holistic one admits the key (wide, selection walkable), and once
// background cracking has shrunk the key clusters below the per-cluster
// accumulator bound its planner switches to sort-based (index-clustered)
// grouping, walking the pieces in key order with no hash table: the
// grouped-aggregation payoff of holistic indexing.
func runGroupBy(p Params) (*Result, error) {
	groupsTarget := p.ColumnSize / 2
	if groupsTarget < 64 {
		groupsTarget = 64
	}
	tab := engine.NewTable("R")
	tab.MustAddColumn(column.New(attrName(0), workload.GroupKeyColumn(p.ColumnSize, groupsTarget, 1.1, p.Seed)))
	tab.MustAddColumn(column.New(attrName(1), workload.UniformColumn(p.ColumnSize, p.Domain, p.Seed+1)))

	crack := cracking.Config{ParallelWorkers: p.Threads, Seed: p.Seed}
	exec := engine.NewHolisticExecutor(tab, engine.HolisticConfig{
		Cracking: crack,
		Daemon: holistic.Config{
			Interval:    p.Interval,
			Refinements: p.Refinements,
			Seed:        p.Seed,
		},
		L1Values: p.L1Values,
		Contexts: p.Threads,
	})
	defer exec.Close()
	adExec := engine.NewAdaptiveExecutor(tab, crack, "")
	defer adExec.Close()
	r, ad := query.New(tab, exec, p.Threads), query.New(tab, adExec, p.Threads)
	ob, adOb := observer.New(observer.Config{FlightEvents: -1}), observer.New(observer.Config{FlightEvents: -1})
	r.SetObserver(ob)
	ad.SetObserver(adOb)

	keys := []string{attrName(0)}
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum(attrName(1))}
	preds := []query.Predicate{{Attr: attrName(1), Lo: 0, Hi: 9 * p.Domain / 10}}
	q := p.Queries / 20
	if q < 4 {
		q = 4
	}

	res := &Result{Headers: []string{"phase", "runner", "strategy", "µs/q", "groups", "checksum"}}
	addCell := func(phase string, runner *query.Runner, o *observer.Observer, label string) (time.Duration, int64, error) {
		t, groups, ran, sum, err := groupByCell(runner, o, keys, aggs, preds, q)
		if err != nil {
			return 0, 0, err
		}
		res.AddRow(phase, label, ran, us(t), fmt.Sprintf("%d", groups), fmt.Sprintf("%d", sum))
		return t, sum, nil
	}

	// The very first grouped query: the index space is empty, so the
	// planner can only hash — and, the key being wide and the selection
	// walkable, it admits the key, starting background refinement.
	var first groupby.Result
	firstStart := time.Now()
	if err := r.GroupedInto(&first, keys, aggs, preds); err != nil {
		return nil, err
	}
	firstT := time.Since(firstStart)
	var coldSum int64
	for g := 0; g < first.Len(); g++ {
		coldSum += first.Keys[0][g]*7 + first.Aggs[0][g]*3 + first.Aggs[1][g]
	}
	coldSum *= int64(q) // cells accumulate q queries' worth
	res.AddRow("first query", "holistic", first.Strategy.String(), us(firstT), fmt.Sprintf("%d", first.Len()), fmt.Sprintf("%d", coldSum))

	// Early phase: refinement has barely started (it proceeds between
	// these queries — holistic indexing never waits for idle windows).
	for _, c := range []struct {
		runner *query.Runner
		o      *observer.Observer
		label  string
	}{{ad, adOb, "adaptive"}, {r, ob, "holistic"}} {
		if _, sum, err := addCell("early", c.runner, c.o, c.label); err != nil {
			return nil, err
		} else if sum != coldSum {
			return nil, fmt.Errorf("groupby: early %s checksum %d != first %d", c.label, sum, coldSum)
		}
	}

	// Idle window: background refinement shrinks the key's clusters. We
	// wait until the expected cluster span fits the sort strategy's
	// per-cluster accumulator with room to spare, or time out (the
	// result then records how far refinement got).
	wantSpan := float64(groupby.DefaultDenseSlots) / 8
	deadline := time.Now().Add(100 * p.Interval)
	if min := 3 * time.Second; time.Until(deadline) > min {
		deadline = time.Now().Add(min)
	}
	converged := false
	for time.Now().Before(deadline) {
		if span, ok := exec.KeyOrderSpan(keys[0]); ok && span <= wantSpan {
			converged = true
			break
		}
		time.Sleep(p.Interval)
	}

	// Refined index: the holistic planner walks the pieces in key order
	// with small dense per-cluster accumulators; the adaptive one still
	// hashes.
	adT, adSum, err := addCell("refined", ad, adOb, "adaptive")
	if err != nil {
		return nil, err
	}
	hoT, hoSum, err := addCell("refined", r, ob, "holistic")
	if err != nil {
		return nil, err
	}
	if adSum != coldSum || hoSum != coldSum {
		return nil, fmt.Errorf("groupby: refined checksums diverge (adaptive %d, holistic %d, cold %d)", adSum, hoSum, coldSum)
	}

	span, _ := exec.KeyOrderSpan(keys[0])
	pieces := 0
	if c := exec.CrackerIfExists(keys[0]); c != nil {
		pieces = c.Pieces()
	}
	snap := ob.Query.Snapshot()
	res.AddPercentiles("grouped", snap.Latency["grouped"])
	res.AddNote("strategies the holistic runner executed, over every phase: %v", snap.Strategies)

	res.AddNote("workload: group by %s (%d-group zipf(1.1) key) over %d rows, count+sum fused, predicate keeps 90%%; %d queries per cell",
		keys[0], groupsTarget, p.ColumnSize, q)
	res.AddNote("daemon refined the key index to %d pieces (expected cluster span %.0f values, refinements %d, converged %v)",
		pieces, span, exec.Daemon().Refinements(), converged)
	if hoT < adT {
		res.AddNote("refined: the holistic runner groups %.2fx faster than the adaptive one — the holistic grouping payoff", float64(adT)/float64(hoT))
	} else {
		res.AddNote("refined: holistic %.1fµs vs adaptive %.1fµs — refinement has not paid off at this scale", float64(hoT.Nanoseconds())/1000, float64(adT.Nanoseconds())/1000)
	}
	return res, nil
}

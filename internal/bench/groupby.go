package bench

import (
	"fmt"
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
	register("groupby", "Grouped aggregation: hash vs index-clustered (sort) grouping under the holistic daemon (new)", runGroupBy)
}

// groupByCell times q grouped count+sum queries under one forced
// strategy, returning ns/query, the group count, the executed strategy
// of the last query, and a checksum over keys and aggregates.
func groupByCell(r *query.Runner, strat groupby.Strategy, keys []string, aggs []groupby.Agg, preds []query.Predicate, q int) (perQuery time.Duration, groups int, ran groupby.Strategy, checksum int64, err error) {
	r.SetGroupStrategy(strat)
	defer r.SetGroupStrategy(groupby.StrategyAuto)
	var res groupby.Result
	// One warm-up query fills the pooled scratch before measuring.
	if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
		return 0, 0, 0, 0, err
	}
	start := time.Now()
	for i := 0; i < q; i++ {
		if err := r.GroupedInto(&res, keys, aggs, preds); err != nil {
			return 0, 0, 0, 0, err
		}
		for g := 0; g < res.Len(); g++ {
			checksum += res.Keys[0][g]*7 + res.Aggs[0][g]*3 + res.Aggs[1][g]
		}
	}
	return time.Since(start) / time.Duration(q), res.Len(), res.Strategy, checksum, nil
}

// runGroupBy is the groupby experiment: grouped aggregation over a
// skewed group-key attribute whose domain is too wide for the dense
// strategy, compared before and after the holistic daemon refines the
// key's index. Before refinement the only viable strategy is the global
// hash; once background cracking has shrunk the key clusters below the
// per-cluster accumulator bound, sort-based (index-clustered) grouping
// walks the pieces in key order with no hash table — the experiment
// shows it overtaking the hash strategy, which is the grouped-
// aggregation payoff of holistic indexing.
func runGroupBy(p Params) (*Result, error) {
	groupsTarget := p.ColumnSize / 2
	if groupsTarget < 64 {
		groupsTarget = 64
	}
	tab := engine.NewTable("R")
	tab.MustAddColumn(column.New(attrName(0), workload.GroupKeyColumn(p.ColumnSize, groupsTarget, 1.1, p.Seed)))
	tab.MustAddColumn(column.New(attrName(1), workload.UniformColumn(p.ColumnSize, p.Domain, p.Seed+1)))

	exec := engine.NewHolisticExecutor(tab, engine.HolisticConfig{
		Cracking: cracking.Config{
			ParallelWorkers: p.Threads,
			Seed:            p.Seed,
		},
		Daemon: holistic.Config{
			Interval:    p.Interval,
			Refinements: p.Refinements,
			Seed:        p.Seed,
		},
		L1Values: p.L1Values,
		Contexts: p.Threads,
	})
	defer exec.Close()
	r := query.New(tab, exec, p.Threads)
	ob := observer.New(observer.Config{FlightEvents: -1})
	r.SetObserver(ob)

	keys := []string{attrName(0)}
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum(attrName(1))}
	preds := []query.Predicate{{Attr: attrName(1), Lo: 0, Hi: 9 * p.Domain / 10}}
	q := p.Queries / 20
	if q < 4 {
		q = 4
	}

	res := &Result{Headers: []string{"phase", "strategy", "µs/q", "groups", "checksum"}}
	addCell := func(phase string, strat groupby.Strategy) (time.Duration, int64, error) {
		t, groups, ran, sum, err := groupByCell(r, strat, keys, aggs, preds, q)
		if err != nil {
			return 0, 0, err
		}
		label := strat.String()
		if ran != strat {
			label = fmt.Sprintf("%v→%v", strat, ran)
		}
		res.AddRow(phase, label, us(t), fmt.Sprintf("%d", groups), fmt.Sprintf("%d", sum))
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
	res.AddRow("first query", first.Strategy.String(), us(firstT), fmt.Sprintf("%d", first.Len()), fmt.Sprintf("%d", coldSum))

	// Early phase: refinement has barely started (it proceeds between
	// these queries — holistic indexing never waits for idle windows).
	if _, earlySum, err := addCell("early", groupby.StrategyHash); err != nil {
		return nil, err
	} else if earlySum != coldSum {
		return nil, fmt.Errorf("groupby: early hash checksum %d != first %d", earlySum, coldSum)
	}
	if _, autoSum, err := addCell("early", groupby.StrategyAuto); err != nil {
		return nil, err
	} else if autoSum != coldSum {
		return nil, fmt.Errorf("groupby: early auto checksum %d != first %d", autoSum, coldSum)
	}

	// Idle window: background refinement shrinks the key's clusters. We
	// wait until the expected cluster span fits the sort strategy's
	// per-cluster accumulator with room to spare, or time out (the
	// result then records how far refinement got).
	wantSpan := float64(groupby.DefaultClusterSlots) / 8
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

	// Phase 2: refined index. Sort-based grouping walks the pieces in
	// key order with small dense per-cluster accumulators.
	hashT, hashSum, err := addCell("refined", groupby.StrategyHash)
	if err != nil {
		return nil, err
	}
	sortT, sortSum, err := addCell("refined", groupby.StrategySort)
	if err != nil {
		return nil, err
	}
	if _, autoSum, err := addCell("refined", groupby.StrategyAuto); err != nil {
		return nil, err
	} else if autoSum != hashSum || sortSum != hashSum || hashSum != coldSum {
		return nil, fmt.Errorf("groupby: refined checksums diverge (hash %d, sort %d, auto %d, cold %d)", hashSum, sortSum, autoSum, coldSum)
	}

	span, _ := exec.KeyOrderSpan(keys[0])
	pieces := 0
	if c := exec.CrackerIfExists(keys[0]); c != nil {
		pieces = c.Pieces()
	}
	snap := ob.Query.Snapshot()
	res.AddPercentiles("grouped", snap.Latency["grouped"])
	res.StrategyTimeline = snap.Timeline

	res.AddNote("workload: group by %s (%d-group zipf(1.1) key) over %d rows, count+sum fused, predicate keeps 90%%; %d queries per cell",
		keys[0], groupsTarget, p.ColumnSize, q)
	res.AddNote("daemon refined the key index to %d pieces (expected cluster span %.0f values, refinements %d, converged %v)",
		pieces, span, exec.Daemon().Refinements(), converged)
	if sortT < hashT {
		res.AddNote("refined: sort-based (index-clustered) grouping %.2fx faster than hash grouping — the holistic grouping payoff", float64(hashT)/float64(sortT))
	} else {
		res.AddNote("refined: sort %.1fµs vs hash %.1fµs — refinement has not paid off at this scale", float64(sortT.Nanoseconds())/1000, float64(hashT.Nanoseconds())/1000)
	}
	return res, nil
}

package bench

import (
	"fmt"
	"time"

	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/workload"
)

func init() {
	register("fig16", "Updates: HFLV and LFHV scenarios (Figure 16)", runFig16)
	register("fig17", "Varying number of concurrent clients (Figure 17)", runFig17)
}

// runFig16 interleaves 500 range selects with 500 inserts on a single
// attribute, in the two arrival patterns of Section 5.7. The 11th query
// arrives after an idle gap (paper: 20 seconds; scaled to tuning
// intervals here) during which only holistic indexing can work.
func runFig16(p Params) (*Result, error) {
	const queries = 500
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: queries, Domain: p.Domain,
		Attrs: 1, OneSided: true, Seed: p.Seed,
	})

	type mode struct {
		label    string
		holistic bool
	}
	modes := []mode{{"adaptive indexing", false}, {"holistic indexing", true}}

	run := func(scenario workload.UpdateScenario, m mode) (time.Duration, error) {
		batches := workload.InsertBatches(scenario, queries, p.Domain, p.Seed+3)
		next := 0
		pp := p
		pp.Attrs = 1
		t := buildTable(pp)

		var exec *engine.Executor
		if m.holistic {
			// Single worker refining only during idle time, as in the
			// paper's update experiment.
			exec = engine.NewHolisticExecutor(t, engine.HolisticConfig{
				Cracking: pvdcConfig(p, 1),
				Daemon: holistic.Config{
					Interval:    p.Interval,
					Refinements: p.Refinements,
					Seed:        p.Seed,
				},
				L1Values: p.L1Values,
				Contexts: 1,
			})
		} else {
			exec = engine.NewAdaptiveExecutor(t, pvdcConfig(p, 1), "")
		}
		defer exec.Close()

		var cost time.Duration
		for i, q := range qs {
			if i == 10 {
				// Idle gap after the 10th query (paper: 20 s).
				time.Sleep(20 * p.Interval)
			}
			start := time.Now()
			if _, err := exec.Count(attrName(0), q.Lo, q.Hi); err != nil {
				return 0, err
			}
			cost += time.Since(start)
			for next < len(batches) && batches[next].AfterQuery == i+1 {
				for _, v := range batches[next].Values {
					if err := exec.Insert(attrName(0), v); err != nil {
						return 0, err
					}
				}
				next++
			}
		}
		return cost, nil
	}

	r := &Result{Headers: []string{"scenario", "adaptive (s)", "holistic (s)"}}
	for _, sc := range []workload.UpdateScenario{workload.HFLV, workload.LFHV} {
		row := []string{sc.String()}
		for _, m := range modes {
			cost, err := run(sc, m)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(cost))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: holistic keeps ~50%% advantage under both update scenarios; workers also merge pending inserts")
	return r, nil
}

func runFig17(p Params) (*Result, error) {
	queries := p.Queries
	if queries > 1024 {
		queries = 1024
	}
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: queries, Domain: p.Domain,
		Attrs: p.Attrs, OneSided: true, Seed: p.Seed,
	})

	var clientCounts []int
	for c := 1; c <= p.Threads*2; c *= 2 {
		clientCounts = append(clientCounts, c)
	}

	r := &Result{Headers: []string{"clients", "PVDC (s)", "HI (s)", "HI activations"}}
	for _, clients := range clientCounts {
		// PVDC: user queries own every context.
		t := buildTable(p)
		perClient := p.Threads / clients
		if perClient < 1 {
			perClient = 1
		}
		pv := engine.NewAdaptiveExecutor(t, pvdcConfig(p, perClient), "")
		start := time.Now()
		if _, err := runQueries(pv.Count, qs, attrName, clients); err != nil {
			return nil, err
		}
		pvdcCost := time.Since(start)
		pv.Close()

		// HI: each client's query gets half the PVDC thread share (the
		// paper's u8w8x2-style splits); every client's query counts as a
		// busy context, so with clients >= contexts the daemon detects
		// saturation and stays out of the way.
		hiPerClient := perClient / 2
		if hiPerClient < 1 {
			hiPerClient = 1
		}
		t2 := buildTable(p)
		hi := engine.NewHolisticExecutor(t2, engine.HolisticConfig{
			Cracking: pvdcConfig(p, hiPerClient),
			Daemon: holistic.Config{
				Interval:    p.Interval,
				Refinements: p.Refinements,
				Seed:        p.Seed,
			},
			L1Values:  p.L1Values,
			Contexts:  p.Threads,
			StatsSeed: p.Seed,
		})
		start = time.Now()
		if _, err := runQueries(hi.Count, qs, attrName, clients); err != nil {
			return nil, err
		}
		hiCost := time.Since(start)
		activations := int(hi.Daemon().CycleTotals().Cycles)
		hi.Close()

		r.AddRow(fmt.Sprintf("%d", clients), secs(pvdcCost), secs(hiCost), fmt.Sprintf("%d", activations))
	}
	r.AddNote("paper shape: HI wins with few clients; with clients >= contexts the load monitor suppresses workers and the two converge")
	return r, nil
}

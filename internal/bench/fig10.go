package bench

import (
	"fmt"
	"time"

	"holistic/internal/cpu"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/stats"
	"holistic/internal/workload"
)

func init() {
	register("fig10", "Workload patterns: predicate value series (Figure 10)", runFig10)
	register("fig11", "Holistic vs multi-core adaptive indexing, cores sweep (Figure 11)", runFig11)
	register("fig12", "Robustness across workload patterns (Figure 12)", runFig12)
	register("fig13", "Attribute-count sweep and strategies W1-W4 (Figure 13)", runFig13)
	register("fig15", "Refinements-per-worker sweep x (Figure 15)", runFig15)
}

func runFig10(p Params) (*Result, error) {
	n := p.Queries
	samples := 20
	step := n / samples
	if step < 1 {
		step = 1
	}
	headers := []string{"query#"}
	series := make([][]int64, 0, 5)
	for _, pat := range workload.Patterns() {
		headers = append(headers, pat.String())
		series = append(series, workload.PredicateSeries(pat, n, p.Domain, p.Seed))
	}
	r := &Result{Headers: headers}
	for i := 0; i < n; i += step {
		row := []string{fmt.Sprintf("%d", i+1)}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%d", s[i]))
		}
		r.AddRow(row...)
	}
	r.AddNote("series sampled every %d queries; domain [0, %d)", step, p.Domain)
	return r, nil
}

// system is one competitor in Figures 11/12/13/15.
type system struct {
	label string
	build func(p Params, t *engine.Table, threads int) *engine.Executor
}

func pvdcSystem() system {
	return system{"PVDC", func(p Params, t *engine.Table, threads int) *engine.Executor {
		return engine.NewAdaptiveExecutor(t, pvdcConfig(p, threads), "PVDC")
	}}
}

func pvsdcSystem() system {
	return system{"PVSDC", func(p Params, t *engine.Table, threads int) *engine.Executor {
		cfg := pvdcConfig(p, threads)
		cfg.Stochastic = true
		return engine.NewAdaptiveExecutor(t, cfg, "PVSDC")
	}}
}

func ccgiSystem() system {
	return system{"mP-CCGI", func(p Params, t *engine.Table, threads int) *engine.Executor {
		return engine.NewCCGIExecutor(t, threads, 64, pvdcConfig(p, 1))
	}}
}

// holisticSystem splits the thread budget in half between user queries
// and holistic workers (the distribution Section 5.2 found best).
func holisticSystem(strategy stats.Strategy) system {
	label := "HI"
	if strategy != 0 && strategy != stats.W4 {
		label = "HI (" + strategy.String() + ")"
	}
	return system{label, func(p Params, t *engine.Table, threads int) *engine.Executor {
		user := threads / 2
		if user < 1 {
			user = 1
		}
		workers := threads - user
		if workers < 1 {
			workers = 1
		}
		return engine.NewHolisticExecutor(t, engine.HolisticConfig{
			Cracking: pvdcConfig(p, user),
			Daemon: holistic.Config{
				Interval:    p.Interval,
				Refinements: p.Refinements,
				Strategy:    strategy,
				Seed:        p.Seed,
			},
			L1Values:  p.L1Values,
			Contexts:  threads,
			Monitor:   cpu.Fixed{Idle: workers},
			StatsSeed: p.Seed,
		})
	}}
}

// totalCost runs the workload through a freshly built executor and
// returns the total processing cost.
func totalCost(p Params, sys system, threads int, qs []workload.Query) (time.Duration, error) {
	times, err := timeFresh(p, qs, func(p Params, t *engine.Table) *engine.Executor {
		return sys.build(p, t, threads)
	})
	return sum(times), err
}

func runFig11(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	systems := []system{ccgiSystem(), pvdcSystem(), pvsdcSystem(), holisticSystem(stats.W4)}

	var cores []int
	for c := 1; c <= p.Threads*2; c *= 2 {
		cores = append(cores, c)
	}
	headers := []string{"cores"}
	for _, s := range systems {
		headers = append(headers, s.label+" (s)")
	}
	r := &Result{Headers: headers}
	for _, c := range cores {
		row := []string{fmt.Sprintf("%d", c)}
		for _, s := range systems {
			cost, err := totalCost(p, s, c, qs)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(cost))
		}
		r.AddRow(row...)
	}
	r.AddNote("physical cores on this machine: %d; larger counts oversubscribe goroutines (DESIGN.md §3)", p.Threads)
	r.AddNote("paper shape: all systems improve with cores; HI lowest at every width")
	return r, nil
}

func runFig12(p Params) (*Result, error) {
	systems := []system{pvdcSystem(), pvsdcSystem(), holisticSystem(stats.W4)}
	headers := []string{"workload"}
	for _, s := range systems {
		headers = append(headers, s.label+" (s)")
	}
	r := &Result{Headers: headers}
	for _, pat := range workload.Patterns() {
		qs := microWorkload(p, pat)
		row := []string{pat.String()}
		for _, s := range systems {
			cost, err := totalCost(p, s, p.Threads, qs)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(cost))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: PVDC degrades badly on sequential; PVSDC repairs robustness; HI lowest everywhere")
	return r, nil
}

func runFig13(p Params) (*Result, error) {
	// Four sub-figures: {uniform, zipf-skewed} attribute popularity ×
	// {random, periodic} predicate values; systems PVDC, PVSDC and the
	// four holistic strategies. Queries are capped to keep the sweep
	// affordable.
	sub := []struct {
		label   string
		pattern workload.Pattern
		zipf    float64
	}{
		{"(a) random attrs, random values", workload.Random, 0},
		{"(b) random attrs, periodic values", workload.Periodic, 0},
		{"(c) skewed attrs, random values", workload.Random, 1.2},
		{"(d) skewed attrs, periodic values", workload.Periodic, 1.2},
	}
	systems := []system{
		pvdcSystem(), pvsdcSystem(),
		holisticSystem(stats.W1), holisticSystem(stats.W2),
		holisticSystem(stats.W3), holisticSystem(stats.W4),
	}
	queries := p.Queries
	if queries > 500 {
		queries = 500
	}

	headers := []string{"sub-figure", "#attrs"}
	for _, s := range systems {
		headers = append(headers, s.label+" (s)")
	}
	attrCounts := []int{}
	for _, a := range []int{5, 8, 10} {
		if a <= p.Attrs {
			attrCounts = append(attrCounts, a)
		}
	}
	if len(attrCounts) == 0 {
		attrCounts = []int{p.Attrs}
	}

	r := &Result{Headers: headers}
	for _, sf := range sub {
		for _, attrs := range attrCounts {
			pp := p
			pp.Attrs = attrs
			pp.Queries = queries
			qs := workload.Generate(workload.Config{
				Pattern: sf.pattern, Queries: queries, Domain: p.Domain,
				Attrs: attrs, AttrZipf: sf.zipf, OneSided: true, Seed: p.Seed,
			})
			row := []string{sf.label, fmt.Sprintf("%d", attrs)}
			for _, s := range systems {
				cost, err := totalCost(pp, s, p.Threads, qs)
				if err != nil {
					return nil, err
				}
				row = append(row, secs(cost))
			}
			r.AddRow(row...)
		}
	}
	r.AddNote("paper shape: HI gains grow with attribute count; W1-W4 similar on random values, W4 best on periodic")
	return r, nil
}

func runFig15(p Params) (*Result, error) {
	xs := []int{1, 2, 4, 8, 16, 32}
	headers := []string{"workload", "PVDC (s)", "PVSDC (s)"}
	for _, x := range xs {
		headers = append(headers, fmt.Sprintf("HI x=%d (s)", x))
	}
	r := &Result{Headers: headers}
	for _, pat := range workload.Patterns() {
		qs := microWorkload(p, pat)
		row := []string{pat.String()}
		for _, s := range []system{pvdcSystem(), pvsdcSystem()} {
			cost, err := totalCost(p, s, p.Threads, qs)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(cost))
		}
		for _, x := range xs {
			px := p
			px.Refinements = x
			cost, err := totalCost(px, holisticSystem(stats.W4), p.Threads, qs)
			if err != nil {
				return nil, err
			}
			row = append(row, secs(cost))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: HI improves as x grows, flattening around x=16")
	return r, nil
}

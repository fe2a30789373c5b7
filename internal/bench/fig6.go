package bench

import (
	"fmt"
	"time"

	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/obs/flight"
	"holistic/internal/obs/observer"
	"holistic/internal/workload"
)

func init() {
	register("fig6a", "Cumulative response time vs state-of-the-art indexing (Figure 6a)", runFig6a)
	register("fig6b", "Performance breakdown: adaptive vs holistic (Figure 6b)", runFig6b)
	register("fig6c", "Cumulative index partitions (Figure 6c)", runFig6c)
	register("fig6d", "Idle CPU utilization: worker activations (Figure 6d)", runFig6d)
	register("fig7", "Thread distribution between users and workers (Figure 7)", runFig7)
	register("fig8", "Per-query response time of adaptive indexing (Figure 8)", runFig8)
	register("fig9", "Idle time before the workload: Cpotential prefill (Figure 9)", runFig9)
}

// microWorkload is the Section 5.1 workload: one-sided random range
// selects ("select A from R where A < v") over Attrs attributes.
func microWorkload(p Params, pattern workload.Pattern) []workload.Query {
	return workload.Generate(workload.Config{
		Pattern:  pattern,
		Queries:  p.Queries,
		Domain:   p.Domain,
		Attrs:    p.Attrs,
		OneSided: true,
		Seed:     p.Seed,
	})
}

// pvdcConfig is the adaptive indexing baseline (the paper's PVDC, built
// from [44]): database cracking whose pieces of at least 32 Ki values
// are sliced across threads goroutines, partitioned in place and merged.
func pvdcConfig(p Params, threads int) cracking.Config {
	return cracking.Config{
		ParallelWorkers:  threads,
		MinParallelPiece: 1 << 15,
		Seed:             p.Seed,
	}
}

// newHolistic assembles the paper's default holistic configuration:
// half the contexts to user queries, the rest picked up by the daemon.
func newHolistic(p Params, t *engine.Table) *engine.Executor {
	user := p.Threads / 2
	if user < 1 {
		user = 1
	}
	return engine.NewHolisticExecutor(t, engine.HolisticConfig{
		Cracking: pvdcConfig(p, user),
		Daemon: holistic.Config{
			Interval:    p.Interval,
			Refinements: p.Refinements,
			Seed:        p.Seed,
		},
		L1Values:  p.L1Values,
		Contexts:  p.Threads,
		StatsSeed: p.Seed,
	})
}

// newAdaptive is the adaptive indexing baseline over all contexts.
func newAdaptive(p Params, t *engine.Table) *engine.Executor {
	return engine.NewAdaptiveExecutor(t, pvdcConfig(p, p.Threads), "")
}

// timeFresh builds the table p describes and exec's executor over it,
// times qs through the executor and closes it.
func timeFresh(p Params, qs []workload.Query, exec func(Params, *engine.Table) *engine.Executor) ([]time.Duration, error) {
	e := exec(p, buildTable(p))
	defer e.Close()
	return timeQueries(e, qs)
}

func runFig6a(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	checkpoints := checkpointsFor(p.Queries)

	modes := []struct {
		label string
		run   func() ([]time.Duration, error)
	}{
		{"no indexing", func() ([]time.Duration, error) {
			return timeFresh(p, qs, func(p Params, t *engine.Table) *engine.Executor { return engine.NewScanExecutor(t, p.Threads) })
		}},
		{"offline indexing", func() ([]time.Duration, error) {
			e := engine.NewOfflineExecutor(buildTable(p), p.Threads)
			defer e.Close()
			start := time.Now()
			e.PrepareAll()
			prep := time.Since(start)
			times, err := timeQueries(e, qs)
			// No idle time before the first query: the sorting cost is
			// charged to it, as in the paper.
			if len(times) > 0 {
				times[0] += prep
			}
			return times, err
		}},
		{"online indexing", func() ([]time.Duration, error) {
			return timeFresh(p, qs, func(p Params, t *engine.Table) *engine.Executor {
				return engine.NewOnlineExecutor(t, p.Threads, p.Queries/10)
			})
		}},
		{"adaptive indexing", func() ([]time.Duration, error) { return timeFresh(p, qs, newAdaptive) }},
		{"holistic indexing", func() ([]time.Duration, error) { return timeFresh(p, qs, newHolistic) }},
	}

	headers := []string{"query#"}
	series := make([][]time.Duration, 0, len(modes))
	for _, m := range modes {
		times, err := m.run()
		if err != nil {
			return nil, err
		}
		headers = append(headers, m.label+" (cum s)")
		series = append(series, cumulative(times, checkpoints))
	}

	r := &Result{Headers: headers}
	for i, cp := range checkpoints {
		row := []string{fmt.Sprintf("%d", cp)}
		for _, s := range series {
			row = append(row, secs(s[i]))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: offline pays a huge first query; online pays at query %d; adaptive improves continuously; holistic ends lowest (~2x under adaptive)", p.Queries/10+1)
	return r, nil
}

// bucketize splits per-query times into the 1 / 9 / 90 / 900 buckets of
// Figure 6(b), generalized to the configured query count.
func bucketize(times []time.Duration) (labels []string, sums []time.Duration) {
	lo := 0
	for sz := 1; lo < len(times); sz *= 10 {
		hi := lo + sz
		if sz == 1 {
			hi = 1
		} else {
			hi = lo + sz - sz/10
		}
		if hi > len(times) {
			hi = len(times)
		}
		labels = append(labels, fmt.Sprintf("q%d-%d", lo+1, hi))
		sums = append(sums, sum(times[lo:hi]))
		lo = hi
	}
	return labels, sums
}

// bucketTable is the panel of Figures 6(b) and 9: two runs' bucketed
// response times side by side.
func bucketTable(left, right string, a, b []time.Duration) *Result {
	labels, aSums := bucketize(a)
	_, bSums := bucketize(b)
	r := &Result{Headers: []string{"bucket", left + " (s)", right + " (s)"}}
	for i := range labels {
		r.AddRow(labels[i], secs(aSums[i]), secs(bSums[i]))
	}
	r.AddRow("total", secs(sum(a)), secs(sum(b)))
	return r
}

func runFig6b(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	a, err := timeFresh(p, qs, newAdaptive)
	if err != nil {
		return nil, err
	}
	h, err := timeFresh(p, qs, newHolistic)
	if err != nil {
		return nil, err
	}
	r := bucketTable("adaptive", "holistic", a, h)
	r.AddNote("paper shape: early buckets similar (big pieces are latched by queries); later buckets ~2x faster under holistic")
	return r, nil
}

func runFig6c(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	step := max(p.Queries/10, 1)

	// pieces runs qs through exec's executor a step at a time and reads
	// its piece count after each step.
	pieces := func(exec func(Params, *engine.Table) *engine.Executor) ([]int, error) {
		e := exec(p, buildTable(p))
		defer e.Close()
		var series []int
		for lo := 0; lo+step <= len(qs); lo += step {
			if _, err := timeQueries(e, qs[lo:lo+step]); err != nil {
				return nil, err
			}
			series = append(series, e.TotalPieces())
		}
		return series, nil
	}
	a, err := pieces(newAdaptive)
	if err != nil {
		return nil, err
	}
	h, err := pieces(newHolistic)
	if err != nil {
		return nil, err
	}

	r := &Result{Headers: []string{"query#", "adaptive partitions", "holistic partitions"}}
	for i := range a {
		r.AddRow(fmt.Sprintf("%d", (i+1)*step), fmt.Sprintf("%d", a[i]), fmt.Sprintf("%d", h[i]))
	}
	r.AddNote("paper shape: holistic accumulates strictly more partitions than adaptive at every point")
	return r, nil
}

func runFig6d(p Params) (*Result, error) {
	e := newHolistic(p, buildTable(p))
	ob := observer.New(observer.Config{})
	e.SetObserver(ob)
	if _, err := timeQueries(e, microWorkload(p, workload.Random)); err != nil {
		e.Close()
		return nil, err
	}
	d := e.Daemon()
	// Give the tuning loop a few more measurement windows so that very
	// short (reduced-scale) workloads still record activations.
	time.Sleep(5 * p.Interval)
	if d.CycleTotals().Cycles == 0 {
		d.RunCycleNow(p.Threads / 2)
	}
	e.Close()

	r := &Result{Headers: []string{"activation", "#workers", "wall time (ms)", "refinements"}}
	const maxRows = 15
	first := int64(-1) // the daemon's number of the oldest cycle the ring holds
	for _, ev := range ob.Flight.Snapshot() {
		if ev.Kind != flight.EvCycle {
			continue
		}
		// Args: cycle (numbered from 0), workers, refinements, merged
		// updates, wall ns.
		if first < 0 {
			first = ev.Args[0]
		}
		if len(r.Rows) < maxRows {
			r.AddRow(fmt.Sprintf("%d", ev.Args[0]+1), fmt.Sprintf("%d", ev.Args[1]), ms(time.Duration(ev.Args[4])), fmt.Sprintf("%d", ev.Args[2]))
		}
	}
	if first > 0 {
		r.AddNote("the flight ring no longer holds the first %d activations", first)
	}
	r.AddNote("activations: %d, total refinements: %d, busy re-rolls: %d",
		d.CycleTotals().Cycles, d.Refinements(), d.BusyRerolls())
	r.AddNote("paper shape: a cycle's wall time is high for the first activations and collapses as pieces shrink")
	return r, nil
}

// distributions enumerates the uXwYxZ thread splits of Figure 7 for the
// available context budget.
func distributions(T int) []struct {
	label                     string
	user, workers, threadsPer int
} {
	type d = struct {
		label                     string
		user, workers, threadsPer int
	}
	mk := func(u, w, z int) d {
		if u < 1 {
			u = 1
		}
		label := fmt.Sprintf("u%d", u)
		if w > 0 {
			label += fmt.Sprintf("w%dx%d", w, z)
		}
		return d{label, u, w, z}
	}
	var out []d
	seen := map[string]bool{}
	for _, c := range []d{
		mk(T, 0, 1),
		mk(T-1, 1, 1),
		mk(T/2, T/2, 1),
		mk(T/2, T/4, 2),
		mk(T/4, 3*T/4, 1),
	} {
		if c.workers > 0 && c.threadsPer < 1 {
			c.threadsPer = 1
		}
		if c.workers < 0 {
			c.workers = 0
		}
		if !seen[c.label] {
			seen[c.label] = true
			out = append(out, c)
		}
	}
	return out
}

func runFig7(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	r := &Result{Headers: []string{"distribution", "total cost (s)"}}
	for _, d := range distributions(p.Threads) {
		times, err := timeFresh(p, qs, func(p Params, t *engine.Table) *engine.Executor {
			if d.workers == 0 {
				return engine.NewAdaptiveExecutor(t, pvdcConfig(p, d.user), "")
			}
			cfg := pvdcConfig(p, d.user)
			cfg.RefineWorkers = d.threadsPer
			return engine.NewHolisticExecutor(t, engine.HolisticConfig{
				Cracking: cfg,
				Daemon: holistic.Config{
					Interval:    p.Interval,
					Refinements: p.Refinements,
					Seed:        p.Seed,
				},
				L1Values:  p.L1Values,
				Contexts:  p.Threads,
				Monitor:   cpu.Fixed{Total: p.Threads, Idle: d.workers},
				StatsSeed: p.Seed,
			})
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(d.label, secs(sum(times)))
	}
	r.AddNote("paper shape: splitting contexts between users and workers beats devoting all %d to user queries", p.Threads)
	return r, nil
}

func runFig8(p Params) (*Result, error) {
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 100, Domain: p.Domain, Attrs: 1, OneSided: true, Seed: p.Seed,
	})
	one := p
	one.Attrs = 1
	times, err := timeFresh(one, qs, newAdaptive)
	if err != nil {
		return nil, err
	}
	r := &Result{Headers: []string{"query#", "response time (ms)"}}
	for i, d := range times {
		if i < 10 || (i+1)%10 == 0 {
			r.AddRow(fmt.Sprintf("%d", i+1), ms(d))
		}
	}
	r.AddNote("paper shape: the first queries on an index are the slow ones (they reorganize big pieces)")
	return r, nil
}

func runFig9(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	h, err := timeFresh(p, qs, newHolistic)
	if err != nil {
		return nil, err
	}
	e := newHolistic(p, buildTable(p))
	defer e.Close()
	for a := 0; a < p.Attrs; a++ {
		if err := e.AddPotential(attrName(a)); err != nil {
			return nil, err
		}
	}
	// Manually induced idle time before the workload: the daemon refines
	// Cpotential (paper: 22 seconds; scaled here).
	time.Sleep(50 * p.Interval)
	i, err := timeQueries(e, qs)
	if err != nil {
		return nil, err
	}
	r := bucketTable("holistic", "holistic+idle prefill", h, i)
	r.AddNote("paper shape: with idle time before the workload the benefit appears from the very first queries")
	return r, nil
}

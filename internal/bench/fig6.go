package bench

import (
	"fmt"
	"time"

	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
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

func runFig6a(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	checkpoints := checkpointsFor(p.Queries)

	type mode struct {
		label string
		run   func(t *engine.Table) ([]time.Duration, error)
	}
	modes := []mode{
		{"no indexing", func(t *engine.Table) ([]time.Duration, error) {
			e := engine.NewScanExecutor(t, p.Threads)
			defer e.Close()
			return timeQueries(e, qs)
		}},
		{"offline indexing", func(t *engine.Table) ([]time.Duration, error) {
			e := engine.NewOfflineExecutor(t, p.Threads)
			defer e.Close()
			start := time.Now()
			e.PrepareAll()
			prep := time.Since(start)
			times, err := timeQueries(e, qs)
			if err != nil {
				return nil, err
			}
			// No idle time before the first query: the sorting cost is
			// charged to it, as in the paper.
			times[0] += prep
			return times, nil
		}},
		{"online indexing", func(t *engine.Table) ([]time.Duration, error) {
			e := engine.NewOnlineExecutor(t, p.Threads, p.Queries/10)
			defer e.Close()
			return timeQueries(e, qs)
		}},
		{"adaptive indexing", func(t *engine.Table) ([]time.Duration, error) {
			e := engine.NewAdaptiveExecutor(t, pvdcConfig(p, p.Threads), "")
			defer e.Close()
			return timeQueries(e, qs)
		}},
		{"holistic indexing", func(t *engine.Table) ([]time.Duration, error) {
			e := newHolistic(p, t)
			defer e.Close()
			return timeQueries(e, qs)
		}},
	}

	headers := []string{"query#"}
	series := make([][]time.Duration, 0, len(modes))
	for _, m := range modes {
		t := buildTable(p)
		times, err := m.run(t)
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

func runFig6b(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)

	tA := buildTable(p)
	adaptive := engine.NewAdaptiveExecutor(tA, pvdcConfig(p, p.Threads), "")
	aTimes, err := timeQueries(adaptive, qs)
	adaptive.Close()
	if err != nil {
		return nil, err
	}
	tH := buildTable(p)
	hol := newHolistic(p, tH)
	hTimes, err := timeQueries(hol, qs)
	hol.Close()
	if err != nil {
		return nil, err
	}

	labels, aSums := bucketize(aTimes)
	_, hSums := bucketize(hTimes)
	r := &Result{Headers: []string{"bucket", "adaptive (s)", "holistic (s)"}}
	for i := range labels {
		r.AddRow(labels[i], secs(aSums[i]), secs(hSums[i]))
	}
	r.AddRow("total", secs(sum(aTimes)), secs(sum(hTimes)))
	r.AddNote("paper shape: early buckets similar (big pieces are latched by queries); later buckets ~2x faster under holistic")
	return r, nil
}

func runFig6c(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	step := p.Queries / 10
	if step < 1 {
		step = 1
	}

	measure := func(e *engine.Executor, pieces func() int) ([]int, error) {
		var series []int
		for i, q := range qs {
			if _, err := e.Count(attrName(q.Attr), q.Lo, q.Hi); err != nil {
				return nil, err
			}
			if (i+1)%step == 0 {
				series = append(series, pieces())
			}
		}
		return series, nil
	}

	tA := buildTable(p)
	adaptive := engine.NewAdaptiveExecutor(tA, pvdcConfig(p, p.Threads), "")
	aSeries, err := measure(adaptive, adaptive.TotalPieces)
	adaptive.Close()
	if err != nil {
		return nil, err
	}
	tH := buildTable(p)
	hol := newHolistic(p, tH)
	hSeries, err := measure(hol, hol.TotalPieces)
	hol.Close()
	if err != nil {
		return nil, err
	}

	r := &Result{Headers: []string{"query#", "adaptive partitions", "holistic partitions"}}
	for i := range aSeries {
		r.AddRow(fmt.Sprintf("%d", (i+1)*step), fmt.Sprintf("%d", aSeries[i]), fmt.Sprintf("%d", hSeries[i]))
	}
	r.AddNote("paper shape: holistic accumulates strictly more partitions than adaptive at every point")
	return r, nil
}

func runFig6d(p Params) (*Result, error) {
	qs := microWorkload(p, workload.Random)
	t := buildTable(p)
	hol := newHolistic(p, t)
	if _, err := timeQueries(hol, qs); err != nil {
		hol.Close()
		return nil, err
	}
	// Give the tuning loop a few more measurement windows so that very
	// short (reduced-scale) workloads still record activations.
	time.Sleep(5 * p.Interval)
	if hol.Daemon().CycleTotals().Cycles == 0 {
		hol.Daemon().RunCycleNow(p.Threads / 2)
	}
	hol.Close()
	cycles := hol.Daemon().Cycles()

	r := &Result{Headers: []string{"activation", "#workers", "worker time (ms)", "refinements"}}
	maxRows := 15
	for i, c := range cycles {
		if i >= maxRows {
			break
		}
		r.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", c.Workers), ms(c.WorkerTime), fmt.Sprintf("%d", c.Refinements))
	}
	r.AddNote("activations: %d, total refinements: %d, busy re-rolls: %d",
		hol.Daemon().CycleTotals().Cycles, hol.Daemon().Refinements(), hol.Daemon().BusyRerolls())
	r.AddNote("paper shape: worker time is high for the first activations and collapses as pieces shrink")
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
		t := buildTable(p)
		var exec *engine.Executor
		if d.workers == 0 {
			exec = engine.NewAdaptiveExecutor(t, pvdcConfig(p, d.user), "")
		} else {
			cfg := pvdcConfig(p, d.user)
			cfg.RefineWorkers = d.threadsPer
			exec = engine.NewHolisticExecutor(t, engine.HolisticConfig{
				Cracking: cfg,
				Daemon: holistic.Config{
					Interval:    p.Interval,
					Refinements: p.Refinements,
					MaxWorkers:  d.workers,
					Seed:        p.Seed,
				},
				L1Values:  p.L1Values,
				Contexts:  p.Threads,
				Monitor:   cpu.Fixed{Total: p.Threads, Idle: d.workers},
				StatsSeed: p.Seed,
			})
		}
		times, err := timeQueries(exec, qs)
		exec.Close()
		if err != nil {
			return nil, err
		}
		r.AddRow(d.label, secs(sum(times)))
	}
	r.AddNote("paper shape: splitting contexts between users and workers beats devoting all %d to user queries", p.Threads)
	return r, nil
}

func runFig8(p Params) (*Result, error) {
	q := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 100, Domain: p.Domain, Attrs: 1, OneSided: true, Seed: p.Seed,
	})
	t := buildTable(Params{ColumnSize: p.ColumnSize, Attrs: 1, Domain: p.Domain, Seed: p.Seed})
	e := engine.NewAdaptiveExecutor(t, pvdcConfig(p, p.Threads), "")
	defer e.Close()
	times, err := timeQueries(e, q)
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

	run := func(prefill bool) ([]time.Duration, error) {
		t := buildTable(p)
		hol := newHolistic(p, t)
		defer hol.Close()
		if prefill {
			for a := 0; a < p.Attrs; a++ {
				if err := hol.AddPotential(attrName(a)); err != nil {
					return nil, err
				}
			}
			// Manually induced idle time before the workload: the daemon
			// refines Cpotential (paper: 22 seconds; scaled here).
			time.Sleep(50 * p.Interval)
		}
		return timeQueries(hol, qs)
	}

	hTimes, err := run(false)
	if err != nil {
		return nil, err
	}
	iTimes, err := run(true)
	if err != nil {
		return nil, err
	}
	labels, hSums := bucketize(hTimes)
	_, iSums := bucketize(iTimes)
	r := &Result{Headers: []string{"bucket", "holistic (s)", "holistic+idle prefill (s)"}}
	for i := range labels {
		r.AddRow(labels[i], secs(hSums[i]), secs(iSums[i]))
	}
	r.AddRow("total", secs(sum(hTimes)), secs(sum(iTimes)))
	r.AddNote("paper shape: with idle time before the workload the benefit appears from the very first queries")
	return r, nil
}

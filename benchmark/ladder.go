package main

import (
	"fmt"
	"time"

	"holistic"
)

// The outside-in ladder. A traced run replays session 0 of the workload once
// per layer, each time calling that layer's exported functions directly with a
// fresh structure, and times the same operations at every rung:
//
//	range class     Store(holistic) > Store(adaptive) > query.Runner > engine.AdaptiveExecutor > cracking.Column
//	analytic class  Store(holistic) > Store(adaptive) > query.Runner > engine + column/groupby/join kernels by hand
//	update class    Store(OpenStore) > Store(NewStore) > engine.AdaptiveExecutor (+ updates.Pending)
//
// A rung's self time is its total minus the total of the rung beneath (the
// bottom rung's self time is its total), so the self times sum to the top
// rung by construction; the check printed is that the top rung agrees with
// the untraced session. Kernels beside the chain (a plain scan, a full sort,
// a bare WAL append) are floors, not rungs.
//
// The driver's contract wants every per-layer metric from every workload's
// traced run, but a layer only has work on the workloads that reach it. So a
// traced run climbs all three ladders: its own class at the workload's full
// size, the other two on a miniature (rows/16, operations/10) of the workload
// that represents the class. Metrics of the workload's own ladder override
// miniature ones of the same name. README.md says which metric is full-size
// where.

// miniature is the shape a class is climbed at from another class's run.
func miniature(w workloadDef) workloadDef { return w.scaled(16, 10) }

// ladderOut collects what the ladders of one traced run produce.
type ladderOut struct {
	res *runResult
	tr  *tracer
}

func (L *ladderOut) set(name string, v float64, n int) {
	L.res.metrics[name] = reported{value: v, n: n}
}

// check verifies a rung's answers against the oracle.
func (L *ladderOut) check(e *env, rep *replayResult) {
	for c, seq := range rep.streams {
		L.res.failed += e.o.verify(seq, rep.t[c], e.seed)
		if L.res.firstErr == nil {
			L.res.firstErr = rep.t[c].firstErr
		}
	}
	L.res.attempted += rep.count(nil)
}

func (L *ladderOut) account(s *session) {
	L.res.attempted += s.attempted
	L.res.failed += s.failed
	if L.res.firstErr == nil {
		L.res.firstErr = s.firstErr
	}
}

// untraced runs the workload's session 0 as an end-to-end run would and
// reports the demoted end-to-end metrics from it (plus two cold starts where
// the store is in memory).
func (L *ladderOut) untraced(e *env) (*session, error) {
	base, err := e.runSession(0, 0, nil)
	if err != nil {
		return nil, err
	}
	L.account(base)
	colds, err := e.coldStarts(2)
	if err != nil {
		return nil, err
	}
	for _, s := range colds {
		L.account(s)
	}
	all := make(map[string]reported)
	sessionMetrics(e, colds, nil, []*session{base}, []time.Duration{base.setup}, all)
	for _, def := range demoted {
		if r, ok := all[def.Name]; ok {
			L.res.metrics[def.Name] = r
		}
	}
	return base, nil
}

// top runs session 0 once more as the ladder's top rung, with a span around
// every operation; layer names the module the rung stands for.
func (L *ladderOut) top(e *env, layer string) (*session, *rungRecorder, error) {
	var rec *rungRecorder
	s, err := e.runSession(0, 0, func(streams [][]op) *rungRecorder {
		rec = L.tr.rung(e.w.Name, layer, streams, nil)
		return rec
	})
	if err != nil {
		return nil, nil, err
	}
	L.account(s)
	return s, rec, nil
}

// rungRow is one line of a printed ladder.
type rungRow struct {
	layer string
	what  string
	total time.Duration
}

// printLadder prints totals and self times, outermost rung first, and returns
// how far the self times are from summing to the top rung.
func (L *ladderOut) printLadder(title string, untraced time.Duration, rows []rungRow) time.Duration {
	fmt.Printf("  ladder %s (untraced session 0: %.6f s)\n", title, untraced.Seconds())
	var selfSum time.Duration
	for i, r := range rows {
		self := r.total
		if i+1 < len(rows) {
			self -= rows[i+1].total
		}
		selfSum += self
		fmt.Printf("    %-9s %-46s total %10.6f s  self %+10.6f s\n", r.layer, r.what, r.total.Seconds(), self.Seconds())
	}
	gap := selfSum - rows[0].total
	fmt.Printf("    self times sum to %.6f s, top rung %.6f s, gap %+.9f s; tracing overhead (top - untraced) %+.6f s\n",
		selfSum.Seconds(), rows[0].total.Seconds(), gap.Seconds(), (rows[0].total - untraced).Seconds())
	return gap
}

// perOp is d spread over n operations, in ns.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// adaptiveConfig is the workload's Store configuration with the mode forced
// to adaptive; obsOff also turns the flight recorder, watchdog and timeline
// off.
func adaptiveConfig(e *env, obsOff bool) holistic.Config {
	cfg := e.w.config(e.seed)
	cfg.Mode = holistic.ModeAdaptive
	if obsOff {
		cfg.FlightEvents, cfg.WatchdogInterval, cfg.TimelineInterval = -1, -1, -1
	}
	return cfg
}

// climb replays the streams on one rung, checks the answers and closes the
// rung. The heap is settled first: a rung that grows the heap past what the
// previous one left pays page faults (~13 us each on the reference machine)
// that have nothing to do with its layer.
func (L *ladderOut) climb(e *env, r rung, streams [][]op, rec *rungRecorder) *replayResult {
	heapInuse()
	rep := replay(r, streams, 0, rec)
	r.close()
	L.check(e, rep)
	return rep
}

// storeReplay climbs fresh in-memory stores with cfg.
func (L *ladderOut) storeReplay(e *env, cfg holistic.Config, streams [][]op, rec *rungRecorder) (*replayResult, error) {
	w := e.w
	w.Durable = false
	st, err := openStores(w, e.d, cfg, "")
	if err != nil {
		return nil, err
	}
	return L.climb(e, st, streams, rec), nil
}

// pairedSelf is the median, over the operations keep accepts, of the outer
// rung's latency minus the inner rung's for the same operation, in ns. The
// rungs below the holistic one do identical work per operation (cracking is
// deterministic in the sequence), so the difference is what the outer layer
// adds; the median keeps the handful of 10-100 ms first-touch cracks, whose
// run-to-run noise exceeds every layer's overhead, from deciding it. The
// ladder's printed self times are differences of totals instead, and sum.
func pairedSelf(outer, inner *replayResult, keep func(*op, int) bool) (float64, int) {
	var diffs []float64
	for c, seq := range outer.streams {
		for i := range seq {
			if outer.t[c].skipped[i] || inner.t[c].skipped[i] || (keep != nil && !keep(&seq[i], i)) {
				continue
			}
			diffs = append(diffs, float64(outer.t[c].lat(i)-inner.t[c].lat(i)))
		}
	}
	return median(diffs), len(diffs)
}

// setSelf reports pairedSelf under name, scaled by 1/div.
func (L *ladderOut) setSelf(name string, outer, inner *replayResult, keep func(*op, int) bool, div float64) {
	v, n := pairedSelf(outer, inner, keep)
	L.set(name, v/div, n)
}

// daemonMetrics reports the holistic.* counters of an untraced session.
func (L *ladderOut) daemonMetrics(s *session) {
	d := s.m.Daemon
	if d == nil {
		return
	}
	L.set("holistic.refinements", float64(d.Refinements), 1)
	L.set("holistic.attempts", float64(d.Attempts), 1)
	useful := 0.0
	if d.Attempts > 0 {
		useful = float64(d.Refinements) / float64(d.Attempts)
	}
	L.set("holistic.useful_ratio", useful, 1)
	L.set("holistic.busy_rerolls", float64(d.BusyRerolls), 1)
	L.set("holistic.cycles", float64(d.Totals.Cycles), 1)
	worker := d.Totals.WorkerTime.Seconds()
	L.set("holistic.worker_time_s", worker, 1)
	perSec := 0.0
	if worker > 0 {
		perSec = float64(d.Totals.Refinements) / worker
	}
	L.set("holistic.refinements_per_worker_s", perSec, 1)
	L.set("holistic.convergence_ratio", d.Ratio, 1)
}

// verdict prints a note computed from the measured holistic and adaptive
// rungs — never a literal claim. With a client per context no context is idle
// and the paper (section 4.2) asks the daemon to stand down; with fewer, the
// note needs a core that can be idle and says SKIP without one.
func verdict(w workloadDef, holisticT, adaptiveT time.Duration) {
	delta := holisticT - adaptiveT
	side := "above"
	if delta < 0 {
		side, delta = "below", -delta
	}
	rel := 100 * delta.Seconds() / adaptiveT.Seconds()
	switch {
	case w.Clients >= nproc():
		fmt.Printf("  note %s: every context busy; holistic ends %s adaptive by %.6f s (%.1f %%), where it should degrade to adaptive\n", w.Name, side, delta.Seconds(), rel)
	case nproc() < 2:
		fmt.Printf("  note %s: SKIP — needs an idle hardware context (nproc >= 2), nproc = %d\n", w.Name, nproc())
	default:
		fmt.Printf("  note %s: holistic ends %s adaptive by %.6f s (%.1f %%) with an idle context to refine in\n", w.Name, side, delta.Seconds(), rel)
	}
}

// runTraced is a -trace 1 run: every per-layer metric, by climbing the three
// ladders as described above.
func runTraced(w workloadDef, mini func(workloadDef) workloadDef, seed int64, outDir string, tr *tracer) (*runResult, error) {
	res := &runResult{workload: w.Name, metrics: make(map[string]reported)}
	L := &ladderOut{res: res, tr: tr}
	// The workload's own class last, so its full-size numbers win.
	var order []class
	for _, c := range []class{classRange, classAnalytic, classUpdate} {
		if c != w.Class {
			order = append(order, c)
		}
	}
	order = append(order, w.Class)
	for _, c := range order {
		lw, size := w, "full size"
		if c != w.Class {
			lw, size = mini(representative(c)), "miniature"
		}
		fmt.Printf("ladder class of %s (%s: %d attrs x %d rows, %d ops x %d clients)\n", lw.Name, size, lw.Attrs, lw.Rows, lw.Ops, lw.Clients)
		e := newEnv(lw, seed, outDir)
		if err := e.warmUp(); err != nil {
			return nil, err
		}
		var err error
		switch c {
		case classRange:
			err = ladderRange(e, L)
		case classAnalytic:
			err = ladderAnalytic(e, L)
		case classUpdate:
			err = ladderUpdate(e, L)
		}
		if err != nil {
			return nil, fmt.Errorf("%s ladder: %w", lw.Name, err)
		}
	}
	res.setErrorRate()
	for _, def := range traced() {
		if _, ok := res.metrics[def.Name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", def.Name)
		}
	}
	return res, nil
}

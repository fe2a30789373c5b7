package main

import (
	"fmt"
	"time"

	"holistic/internal/column"
	"holistic/internal/sortidx"
)

// scanSample bounds the queries the plain-scan floor replays: a scan of a
// 4 Mi-row column costs milliseconds, so the whole session would take longer
// than every other rung together.
const scanSample = 64

// ladderRange climbs the range class: explore-range and saturated-clients.
func ladderRange(e *env, L *ladderOut) error {
	w, d := e.w, e.d

	// Untraced session 0 at the workload's client count, and at the other
	// of {1, nproc} for the scaling ratio.
	base, err := L.untraced(e)
	if err != nil {
		return err
	}
	streams := base.rep.streams
	n := base.rep.count(nil)
	other := *e
	other.w.Clients = nproc()
	if w.Clients > 1 {
		other.w.Clients = 1
	}
	alt, err := other.runSession(0, 0, nil)
	if err != nil {
		return err
	}
	L.account(alt)
	qps := func(s *session) float64 { return float64(s.rep.count(nil)) / s.rep.wall.Seconds() }
	one, many := base, alt
	if w.Clients > 1 {
		one, many = alt, base
	}
	L.set("store.client_scaling", qps(many)/qps(one), 2)
	fmt.Printf("  clients: 1 -> %.1f ops/s, %d -> %.1f ops/s\n", qps(one), len(many.rep.streams), qps(many))
	L.daemonMetrics(base)
	L.set("engine.cracker_builds", float64(base.m.Exec.CrackerBuilds), 1)
	L.set("engine.select_p50_us", base.m.Exec.SelectLatency.P50US, int(base.m.Exec.Selects))

	// The chain, outermost first.
	top, topRec, err := L.top(e, "holistic")
	if err != nil {
		return err
	}
	storeRec := L.tr.rung(w.Name, "store", streams, topRec)
	adaptive, err := L.storeReplay(e, adaptiveConfig(e, false), streams, storeRec)
	if err != nil {
		return err
	}
	noObs, err := L.storeReplay(e, adaptiveConfig(e, true), streams, nil)
	if err != nil {
		return err
	}
	queryRec := L.tr.rung(w.Name, "query", streams, storeRec)
	viaQuery := L.climb(e, newQueryRung(d, e.seed), streams, queryRec)
	engineRec := L.tr.rung(w.Name, "engine", streams, queryRec)
	viaEngine := L.climb(e, newEngineRung(d, e.seed), streams, engineRec)
	cr := newCrackingRung(d, e.seed)
	viaCracking := L.climb(e, cr, streams, L.tr.rung(w.Name, "cracking", streams, engineRec))

	tTop, tStore := top.rep.sum(nil), adaptive.sum(nil)
	tQuery, tEngine, tCrack := viaQuery.sum(nil), viaEngine.sum(nil), viaCracking.sum(nil)
	gap := L.printLadder(w.Name, base.rep.sum(nil), []rungRow{
		{"holistic", "Store, ModeHolistic (daemon racing the clients)", tTop},
		{"store", "Store, ModeAdaptive", tStore},
		{"query", "query.Runner over AdaptiveExecutor", tQuery},
		{"engine", "engine.AdaptiveExecutor.Count/Sum", tEngine},
		{"cracking", "cracking.Column.SelectRange/SelectSum", tCrack},
	})
	L.set("trace.top_rung_s", tTop.Seconds(), n)
	L.set("trace.overhead_s", (tTop - base.rep.sum(nil)).Seconds(), n)
	L.set("trace.ladder_gap_s", gap.Seconds(), n)
	L.set("holistic.session_delta_s", (tTop - tStore).Seconds(), n)
	L.setSelf("store.range_self_ns_per_query", adaptive, viaQuery, nil, 1)
	L.setSelf("store.obs_overhead_ns_per_query", adaptive, noObs, nil, 1)
	L.setSelf("query.range_self_ns_per_query", viaQuery, viaEngine, nil, 1)
	L.setSelf("engine.count_self_ns_per_query", viaEngine, viaCracking, nil, 1)
	L.set("cracking.select_ns_per_query", perOp(tCrack, n), n)
	L.set("cracking.first_touch_ms", firstTouch(d, viaCracking)/1e6, d.uniform)
	pieces, avg := cr.pieces()
	L.set("cracking.pieces_final", float64(pieces), 1)
	L.set("cracking.avg_piece_values", avg, 1)
	verdict(w, tTop, tStore)

	return floorsRange(e, L, streams[0])
}

// floorsRange times the kernels beside the chain on attribute 0: a plain and
// a parallel scan (no index at all) and a full sort with binary-search
// selects (the index every adaptive mode converges to).
func floorsRange(e *env, L *ladderOut, seq []op) error {
	vals := e.d.cols[0]
	var onAttr []*op
	for i := range seq {
		if seq[i].preds[0].attr == 0 {
			onAttr = append(onAttr, &seq[i])
		}
	}
	if len(onAttr) == 0 {
		onAttr = []*op{{kind: kCount, preds: []pred{{0, 0, domain / 2}}}}
	}
	scans := onAttr[:min(scanSample, len(onAttr))]
	wrong := 0
	var plain, parallel time.Duration
	for _, o := range scans {
		p := o.preds[0]
		want := e.o.rangeCount(0, p.lo, p.hi)
		t0 := time.Now()
		got := column.CountRange(vals, p.lo, p.hi)
		plain += time.Since(t0)
		t0 = time.Now()
		gotPar := column.ParallelCountRange(vals, p.lo, p.hi, nproc())
		parallel += time.Since(t0)
		if int64(got) != want || int64(gotPar) != want {
			wrong++
		}
	}
	scanned := float64(len(scans)) * float64(len(vals))
	L.set("column.scan_ns_per_value", float64(plain.Nanoseconds())/scanned, len(scans))
	L.set("column.scan_gbps", scanned*8/float64(plain.Nanoseconds()), len(scans))
	L.set("column.parallel_scan_gbps", scanned*8/float64(parallel.Nanoseconds()), len(scans))

	t0 := time.Now()
	sc := sortidx.Build(e.d.names[0], vals, nproc())
	build := time.Since(t0)
	L.set("sortidx.build_ns_per_value", float64(build.Nanoseconds())/float64(len(vals)), 1)
	got := make([]int64, len(onAttr))
	t0 = time.Now()
	for i, o := range onAttr {
		p := o.preds[0]
		if o.kind == kSum {
			got[i] = sc.SumRange(p.lo, p.hi)
		} else {
			got[i] = int64(sc.CountRange(p.lo, p.hi))
		}
	}
	L.set("sortidx.select_ns_per_query", perOp(time.Since(t0), len(onAttr)), len(onAttr))
	for i, o := range onAttr {
		if got[i] != e.o.expect(o, nil) {
			wrong++
		}
	}
	L.res.attempted += 2*len(scans) + len(onAttr)
	L.res.failed += wrong
	fmt.Printf("  floors on %s: scan %.3f ns/value, parallel scan x%d %.2f GB/s vs plain %.2f GB/s, sort %.1f ns/value\n",
		e.d.names[0], float64(plain.Nanoseconds())/scanned, nproc(),
		scanned*8/float64(parallel.Nanoseconds()), scanned*8/float64(plain.Nanoseconds()),
		float64(build.Nanoseconds())/float64(len(vals)))
	return nil
}

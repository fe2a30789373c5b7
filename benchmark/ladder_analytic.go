package main

import (
	"fmt"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/join"
)

const (
	conjSample  = 100 // conjunctive queries the index-free floor replays
	mergeSample = 20  // joins the merge-join kernel replays
)

// share is part over the sum of the listed counters.
func share(counts map[string]int64, part string, all ...string) float64 {
	var total int64
	for _, k := range all {
		total += counts[k]
	}
	if total == 0 {
		return 0
	}
	return float64(counts[part]) / float64(total)
}

// ladderAnalytic climbs the analytic class: analytic-mix.
func ladderAnalytic(e *env, L *ladderOut) error {
	w, d := e.w, e.d
	base, err := L.untraced(e)
	if err != nil {
		return err
	}
	streams := base.rep.streams
	n := base.rep.count(nil)
	L.daemonMetrics(base)
	q := base.m.Query
	L.set("query.rep_bitmap_share", share(q.Representations, "bitmap", "bitmap", "poslist", "native"), int(q.Queries))
	L.set("groupby.sort_share", share(q.Strategies, "groupby/sort", "groupby/sort", "groupby/dense", "groupby/hash"), int(q.Queries))
	L.set("groupby.dense_share", share(q.Strategies, "groupby/dense", "groupby/sort", "groupby/dense", "groupby/hash"), int(q.Queries))
	L.set("join.merge_share", share(q.Strategies, "join/merge", "join/merge", "join/hash"), int(q.Queries))

	top, topRec, err := L.top(e, "holistic")
	if err != nil {
		return err
	}
	storeRec := L.tr.rung(w.Name, "store", streams, topRec)
	adaptive, err := L.storeReplay(e, adaptiveConfig(e, false), streams, storeRec)
	if err != nil {
		return err
	}
	queryRec := L.tr.rung(w.Name, "query", streams, storeRec)
	viaQuery := L.climb(e, newQueryRung(d, e.seed), streams, queryRec)
	er := newEngineRung(d, e.seed)
	viaEngine := L.climb(e, er, streams, L.tr.rung(w.Name, "engine", streams, queryRec))

	tTop, tStore, tQuery, tEngine := top.rep.sum(nil), adaptive.sum(nil), viaQuery.sum(nil), viaEngine.sum(nil)
	gap := L.printLadder(w.Name, base.rep.sum(nil), []rungRow{
		{"holistic", "Store, ModeHolistic (2 ms think time for the daemon)", tTop},
		{"store", "Store, ModeAdaptive", tStore},
		{"query", "query.Runner over AdaptiveExecutor", tQuery},
		{"engine", "executor select + column/groupby/join kernels by hand", tEngine},
	})
	L.set("trace.top_rung_s", tTop.Seconds(), n)
	L.set("trace.overhead_s", (tTop - base.rep.sum(nil)).Seconds(), n)
	L.set("trace.ladder_gap_s", gap.Seconds(), n)
	L.set("holistic.session_delta_s", (tTop - tStore).Seconds(), n)
	for _, c := range []struct {
		class opClass
		name  string
	}{{cRead, "conj"}, {cGrouped, "grouped"}, {cJoin, "join"}} {
		keep := ofClass(c.class)
		k := viaQuery.count(keep)
		fmt.Printf("    %-8s x%-5d holistic %10.1f  store %10.1f  query %10.1f  engine %10.1f  ns/query\n", c.name, k,
			perOp(top.rep.sum(keep), k), perOp(adaptive.sum(keep), k), perOp(viaQuery.sum(keep), k), perOp(viaEngine.sum(keep), k))
		L.setSelf("query."+c.name+"_self_ns_per_query", viaQuery, viaEngine, keep, 1)
		if c.class == cRead {
			L.setSelf("store.conj_self_ns_per_query", adaptive, viaQuery, keep, 1)
		}
	}
	L.set("groupby.ns_per_query", perOp(time.Duration(er.groupNS), int(er.groupCalls)), int(er.groupCalls))
	L.set("groupby.ns_per_input_row", perOp(time.Duration(er.groupNS), int(er.groupRows)), int(er.groupRows))
	L.set("join.hash_ns_per_query", perOp(time.Duration(er.hashNS), int(er.hashCalls)), int(er.hashCalls))
	verdict(w, tTop, tStore)

	return floorsAnalytic(e, L, streams[0], top.rep.t[0])
}

// floorsAnalytic times the kernels beside the chain: the index-free
// conjunction in both selection-vector forms, the cracker's row-producing
// select, and the merge join.
func floorsAnalytic(e *env, L *ladderOut, seq []op, answers *timings) error {
	d := e.d
	wrong, checked := 0, 0

	// Index-free conjunctions: scan the first conjunct, filter by the rest.
	var conj, filterBM, filterRows time.Duration
	var nConj, rowsBM, rowsPL int
	bm := column.NewBitmap(d.rows())
	for i := range seq {
		o := &seq[i]
		if (o.kind != kConjCount && o.kind != kConjSum) || nConj == conjSample {
			continue
		}
		nConj++
		t0 := time.Now()
		column.ScanRangeBitmap(d.cols[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi, bm)
		for _, p := range o.preds[1:] {
			in := bm.Count()
			f0 := time.Now()
			column.FilterBitmap(d.cols[p.attr], bm, p.lo, p.hi)
			filterBM += time.Since(f0)
			rowsBM += in
		}
		got := int64(bm.Count())
		if o.kind == kConjSum {
			got = column.SumBitmap(d.cols[o.attr], bm)
		}
		conj += time.Since(t0)
		checked++
		if got != answers.ans[i] {
			wrong++
		}

		sel := column.ScanRange(d.cols[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi)
		for _, p := range o.preds[1:] {
			rowsPL += len(sel)
			f0 := time.Now()
			sel = column.FilterRows(d.cols[p.attr], sel, p.lo, p.hi)
			filterRows += time.Since(f0)
		}
	}
	L.set("column.conj_ns_per_query", perOp(conj, nConj), nConj)
	L.set("column.filter_bitmap_ns_per_row", perOp(filterBM, rowsBM), rowsBM)
	L.set("column.filter_rows_ns_per_row", perOp(filterRows, rowsPL), rowsPL)

	// The cracker select that feeds a conjunction its candidate rows.
	crackers := make([]*cracking.Column, d.uniform)
	var selRows time.Duration
	nSel := 0
	for i := range seq {
		o := &seq[i]
		if len(o.preds) == 0 || o.kind == kJoin {
			continue
		}
		p := o.preds[0]
		if crackers[p.attr] == nil {
			crackers[p.attr] = cracking.New(d.names[p.attr], d.cols[p.attr], crackConfig(e.seed))
		}
		t0 := time.Now()
		crackers[p.attr].SelectRowsFunc(p.lo, p.hi, func([]uint32) {})
		selRows += time.Since(t0)
		nSel++
	}
	L.set("cracking.select_rows_ns_per_query", perOp(selRows, nSel), nSel)

	// The merge join over both sides' key-order walks. The walks need a
	// cracker on each join key; an unrefined one is a single cluster.
	er := newEngineRung(d, e.seed)
	defer er.close()
	keyName, dimKey := d.names[d.joinKey], d.dimNames[0]
	if _, _, err := er.main.exec.Cracker(keyName); err != nil {
		return err
	}
	if _, _, err := er.dim.exec.Cracker(dimKey); err != nil {
		return err
	}
	var merge time.Duration
	nMerge := 0
	lbm, rbm := column.NewBitmap(d.rows()), column.NewBitmap(len(d.dimCols[0]))
	for i := range seq {
		o := &seq[i]
		if o.kind != kJoin || nMerge == mergeSample {
			continue
		}
		if err := selectInto(er.main, d.names, o.preds, lbm); err != nil {
			return err
		}
		if err := er.dim.exec.SelectBitmap(d.dimNames[1], o.dimLo, o.dimHi, rbm); err != nil {
			return err
		}
		stream := func(s *side, attr string, sel *column.Bitmap) join.Stream {
			return join.Stream{
				Walk: func(fn func(vals []int64, rows []uint32)) bool {
					ok, err := s.exec.WalkKeyOrder(attr, fn)
					return ok && err == nil
				},
				Sel: sel, Count: sel.Count(),
			}
		}
		ls, rs := stream(er.main, keyName, lbm), stream(er.dim, dimKey, rbm)
		t0 := time.Now()
		got, _, ok := join.Merge(join.Op{Kind: join.OpCount}, ls, rs, 0, nil)
		merge += time.Since(t0)
		nMerge++
		checked++
		if !ok || got != answers.ans[i] {
			wrong++
		}
	}
	L.set("join.merge_ns_per_query", perOp(merge, nMerge), nMerge)
	L.res.attempted += checked
	L.res.failed += wrong
	fmt.Printf("  floors: index-free conjunction %.0f ns/query, FilterBitmap %.2f ns/row, FilterRows %.2f ns/row, SelectRowsFunc %.0f ns/query, merge join %.0f ns/query\n",
		perOp(conj, nConj), perOp(filterBM, rowsBM), perOp(filterRows, rowsPL), perOp(selRows, nSel), perOp(merge, nMerge))
	return nil
}

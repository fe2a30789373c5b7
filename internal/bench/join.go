package bench

import (
	"fmt"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/join"
	"holistic/internal/obs/observer"
	"holistic/internal/query"
	"holistic/internal/workload"
)

func init() {
	register("join", "Equi-join: radix-partitioned hash vs index-clustered merge join under the holistic daemon (new)", runJoin)
}

// joinCell times q join queries under one forced strategy: every query
// counts the matching pairs, every fourth also sums a right-side
// payload, and the folds accumulate into a cross-strategy checksum.
func joinCell(lr *query.Runner, j *query.Join, strat query.JoinStrategy, q int) (perQuery time.Duration, checksum int64, err error) {
	lr.SetJoinStrategy(strat)
	defer lr.SetJoinStrategy(query.JoinAuto)
	if _, err := j.Count(); err != nil { // warm the pools
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < q; i++ {
		n, err := j.Count()
		if err != nil {
			return 0, 0, err
		}
		checksum += n
		if i%4 == 3 {
			s, err := j.Sum(join.Right, attrName(1))
			if err != nil {
				return 0, 0, err
			}
			checksum += s
		}
	}
	return time.Since(start) / time.Duration(q), checksum, nil
}

// runJoin is the join experiment: an M:N equi-join between two
// relations whose join keys the holistic daemons refine in the
// background. The first query can only hash — and it admits both join
// attributes to the daemons (NotePredicate), starting refinement. Once
// background cracking has shrunk both key columns' clusters below the
// merge join's per-pair accumulator bound, the index-clustered merge
// join walks both indexes in key order with no hash table — the
// experiment shows it overtaking the hash join, which is the
// cross-relation payoff of holistic indexing.
func runJoin(p Params) (*Result, error) {
	keys := p.ColumnSize / 2
	if keys < 64 {
		keys = 64
	}
	lk, rk := workload.GenerateJoin(workload.JoinConfig{
		LeftRows: p.ColumnSize, RightRows: p.ColumnSize,
		Keys: keys, Overlap: 0.9, Fan: workload.FanManyToMany, Seed: p.Seed,
	})
	mkTable := func(name string, jk []int64, seed int64) *engine.Table {
		t := engine.NewTable(name)
		t.MustAddColumn(column.New(attrName(0), jk))
		t.MustAddColumn(column.New(attrName(1), workload.UniformColumn(len(jk), p.Domain, seed)))
		return t
	}
	mkExec := func(t *engine.Table) *engine.Executor {
		return engine.NewHolisticExecutor(t, engine.HolisticConfig{
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
	}
	lt := mkTable("L", lk, p.Seed+1)
	rt := mkTable("R", rk, p.Seed+2)
	lExec, rExec := mkExec(lt), mkExec(rt)
	defer lExec.Close()
	defer rExec.Close()
	lr := query.New(lt, lExec, p.Threads)
	rr := query.New(rt, rExec, p.Threads)
	ob := observer.New(observer.Config{FlightEvents: -1})
	lr.SetObserver(ob)

	// Dense pre-join filters (90% of each side qualifies): selective
	// enough to exercise the selection pipeline, dense enough for the
	// merge strategy's profitability rule.
	lPreds := []query.Predicate{{Attr: attrName(1), Lo: 0, Hi: 9 * p.Domain / 10}}
	rPreds := []query.Predicate{{Attr: attrName(1), Lo: p.Domain / 10, Hi: p.Domain}}
	j := lr.Join(rr, attrName(0), attrName(0), lPreds, rPreds)
	q := p.Queries / 20
	if q < 4 {
		q = 4
	}

	res := &Result{Headers: []string{"phase", "strategy", "µs/q", "checksum"}}
	addCell := func(phase string, strat query.JoinStrategy, label string) (time.Duration, int64, error) {
		t, sum, err := joinCell(lr, j, strat, q)
		if err != nil {
			return 0, 0, err
		}
		res.AddRow(phase, label, us(t), fmt.Sprintf("%d", sum))
		return t, sum, nil
	}

	// The very first join admits both join attributes into the daemons'
	// index spaces, starting refinement. Its physical strategy is not
	// assumed: the strategy timeline (recorded below) reports what auto
	// actually picked — on key domains small relative to the merge-span
	// bound even a barely-cracked index can qualify for the merge path.
	firstStart := time.Now()
	firstN, err := j.Count()
	if err != nil {
		return nil, err
	}
	firstT := time.Since(firstStart)
	res.AddRow("first query", "auto", us(firstT), fmt.Sprintf("%d", firstN))

	_, earlyHash, err := addCell("early", query.JoinHash, "hash")
	if err != nil {
		return nil, err
	}
	if _, earlyAuto, err := addCell("early", query.JoinAuto, "auto"); err != nil {
		return nil, err
	} else if earlyAuto != earlyHash {
		return nil, fmt.Errorf("join: early auto checksum %d != hash %d", earlyAuto, earlyHash)
	}

	// Idle window: wait until both join-key indexes have refined below
	// a comfortable fraction of the merge join's per-pair accumulator
	// bound, or time out (the result then records how far it got).
	wantSpan := float64(join.DefaultMergeSpan) / 8
	deadline := time.Now().Add(100 * p.Interval)
	if min := 3 * time.Second; time.Until(deadline) > min {
		deadline = time.Now().Add(min)
	}
	converged := false
	for time.Now().Before(deadline) {
		ls, lok := lExec.KeyOrderSpan(attrName(0))
		rs, rok := rExec.KeyOrderSpan(attrName(0))
		if lok && rok && ls <= wantSpan && rs <= wantSpan {
			converged = true
			break
		}
		time.Sleep(p.Interval)
	}

	hashT, hashSum, err := addCell("refined", query.JoinHash, "hash")
	if err != nil {
		return nil, err
	}
	mergeT, mergeSum, err := addCell("refined", query.JoinMerge, "merge")
	if err != nil {
		return nil, err
	}
	_, autoSum, err := addCell("refined", query.JoinAuto, "auto")
	if err != nil {
		return nil, err
	}
	if mergeSum != hashSum || autoSum != hashSum || hashSum != earlyHash {
		return nil, fmt.Errorf("join: refined checksums diverge (hash %d, merge %d, auto %d, early %d)",
			hashSum, mergeSum, autoSum, earlyHash)
	}

	snap := ob.Query.Snapshot()
	res.AddPercentiles("join", snap.Latency["join"])
	res.StrategyTimeline = snap.Timeline

	lSpan, _ := lExec.KeyOrderSpan(attrName(0))
	rSpan, _ := rExec.KeyOrderSpan(attrName(0))
	res.AddNote("workload: L ⋈ R on %s (M:N, %d-key pool, 0.9 overlap) over 2×%d rows, count+sum, 90%% filters; %d queries per cell",
		attrName(0), keys, p.ColumnSize, q)
	res.AddNote("daemons refined the join-key indexes to cluster spans %.0f / %.0f values (refinements %d + %d, converged %v)",
		lSpan, rSpan, lExec.Daemon().Refinements(), rExec.Daemon().Refinements(), converged)
	if mergeT < hashT {
		res.AddNote("refined: index-clustered merge join %.2fx faster than the hash join — the cross-relation holistic payoff", float64(hashT)/float64(mergeT))
	} else {
		res.AddNote("refined: merge %.1fµs vs hash %.1fµs — refinement has not paid off at this scale", float64(mergeT.Nanoseconds())/1000, float64(hashT.Nanoseconds())/1000)
	}
	return res, nil
}

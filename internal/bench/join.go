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
	register("join", "Equi-join: holistic vs adaptive runner, hash join turning index-clustered (merge) as the daemons refine the keys (new)", runJoin)
}

// joinCell times q join queries through one runner pair on auto: every
// query counts the matching pairs, every fourth also sums a right-side
// payload, and the folds accumulate into a cross-runner checksum. ran
// names the strategies the left runner's observer saw run.
func joinCell(j *query.Join, ob *observer.Observer, q int) (perQuery time.Duration, ran string, checksum int64, err error) {
	if _, err := j.Count(); err != nil { // warm the pools
		return 0, "", 0, err
	}
	before := ob.Query.Snapshot().Strategies
	start := time.Now()
	for i := 0; i < q; i++ {
		n, err := j.Count()
		if err != nil {
			return 0, "", 0, err
		}
		checksum += n
		if i%4 == 3 {
			s, err := j.Sum(join.Right, attrName(1))
			if err != nil {
				return 0, "", 0, err
			}
			checksum += s
		}
	}
	perQuery = time.Since(start) / time.Duration(q)
	return perQuery, ranStrategies(before, ob.Query.Snapshot().Strategies), checksum, nil
}

// runJoin is the join experiment: an M:N equi-join between two relations,
// run by two runner pairs over the same tables, both left to the
// planner: one holistic, one adaptive. The adaptive pair hashes for good
// — its predicates crack the payload attributes, and no daemon ever
// refines the join keys. The holistic pair's first query can only hash
// too, but, both selections being walkable, it admits both join keys,
// and once background cracking has shrunk both key columns' clusters
// below the merge join's per-pair accumulator bound its planner switches
// to the index-clustered merge join, which walks both indexes in key
// order with no hash table: the cross-relation payoff of holistic
// indexing wherever the walk beats the hash join (the last note says
// whether it does at this scale).
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
	crack := cracking.Config{ParallelWorkers: p.Threads, Seed: p.Seed}
	mkExec := func(t *engine.Table) *engine.Executor {
		return engine.NewHolisticExecutor(t, engine.HolisticConfig{
			Cracking: crack,
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
	lAd, rAd := engine.NewAdaptiveExecutor(lt, crack, ""), engine.NewAdaptiveExecutor(rt, crack, "")
	for _, e := range []*engine.Executor{lExec, rExec, lAd, rAd} {
		defer e.Close()
	}
	lr := query.New(lt, lExec, p.Threads)
	lar := query.New(lt, lAd, p.Threads)
	ob, adOb := observer.New(observer.Config{FlightEvents: -1}), observer.New(observer.Config{FlightEvents: -1})
	lr.SetObserver(ob)
	lar.SetObserver(adOb)

	// Dense pre-join filters (90% of each side qualifies): selective
	// enough to exercise the selection pipeline, dense enough for the
	// merge strategy's profitability rule.
	lPreds := []query.Predicate{{Attr: attrName(1), Lo: 0, Hi: 9 * p.Domain / 10}}
	rPreds := []query.Predicate{{Attr: attrName(1), Lo: p.Domain / 10, Hi: p.Domain}}
	j := lr.Join(query.New(rt, rExec, p.Threads), attrName(0), attrName(0), lPreds, rPreds)
	ja := lar.Join(query.New(rt, rAd, p.Threads), attrName(0), attrName(0), lPreds, rPreds)
	q := p.Queries / 20
	if q < 4 {
		q = 4
	}

	res := &Result{Headers: []string{"phase", "runner", "strategy", "µs/q", "checksum"}}
	addCell := func(phase string, jn *query.Join, o *observer.Observer, label string) (time.Duration, int64, error) {
		t, ran, sum, err := joinCell(jn, o, q)
		if err != nil {
			return 0, 0, err
		}
		res.AddRow(phase, label, ran, us(t), fmt.Sprintf("%d", sum))
		return t, sum, nil
	}

	// The very first join admits both join attributes into the daemons'
	// index spaces, starting refinement. Its physical strategy is not
	// assumed: on key domains small relative to the merge-span bound even
	// a barely-cracked index can qualify for the merge path.
	before := ob.Query.Snapshot().Strategies
	firstStart := time.Now()
	firstN, err := j.Count()
	if err != nil {
		return nil, err
	}
	firstT := time.Since(firstStart)
	res.AddRow("first query", "holistic", ranStrategies(before, ob.Query.Snapshot().Strategies), us(firstT), fmt.Sprintf("%d", firstN))

	_, earlyAd, err := addCell("early", ja, adOb, "adaptive")
	if err != nil {
		return nil, err
	}
	if _, earlyHo, err := addCell("early", j, ob, "holistic"); err != nil {
		return nil, err
	} else if earlyHo != earlyAd {
		return nil, fmt.Errorf("join: early holistic checksum %d != adaptive %d", earlyHo, earlyAd)
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

	adT, adSum, err := addCell("refined", ja, adOb, "adaptive")
	if err != nil {
		return nil, err
	}
	hoT, hoSum, err := addCell("refined", j, ob, "holistic")
	if err != nil {
		return nil, err
	}
	if hoSum != adSum || adSum != earlyAd {
		return nil, fmt.Errorf("join: refined checksums diverge (holistic %d, adaptive %d, early %d)", hoSum, adSum, earlyAd)
	}

	snap := ob.Query.Snapshot()
	res.AddPercentiles("join", snap.Latency["join"])
	res.AddNote("strategies the holistic runner executed, over every phase: %v", snap.Strategies)

	lSpan, _ := lExec.KeyOrderSpan(attrName(0))
	rSpan, _ := rExec.KeyOrderSpan(attrName(0))
	res.AddNote("workload: L ⋈ R on %s (M:N, %d-key pool, 0.9 overlap) over 2×%d rows, count+sum, 90%% filters; %d queries per cell",
		attrName(0), keys, p.ColumnSize, q)
	res.AddNote("daemons refined the join-key indexes to cluster spans %.0f / %.0f values (refinements %d + %d, converged %v)",
		lSpan, rSpan, lExec.Daemon().Refinements(), rExec.Daemon().Refinements(), converged)
	if hoT < adT {
		res.AddNote("refined: the holistic runner joins %.2fx faster than the adaptive one — the cross-relation holistic payoff", float64(adT)/float64(hoT))
	} else {
		res.AddNote("refined: holistic %.1fµs vs adaptive %.1fµs — refinement has not paid off at this scale", float64(hoT.Nanoseconds())/1000, float64(adT.Nanoseconds())/1000)
	}
	return res, nil
}

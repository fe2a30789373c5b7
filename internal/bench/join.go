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
	register("join", "Equi-join: holistic vs adaptive runner; the walk rule merges only keys the hash table cannot address directly (new)", runJoin)
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
// refines the join keys. The holistic pair runs the walk rule: its key
// pool is dense, so the hash table addresses the build keys directly,
// which no walk beats; it hashes from its first query and admits
// neither join key, leaving the daemons to refine only the payload
// attributes its predicates crack. The notes report what ran and which
// keys were admitted, so a sparser pool shows as admitted keys, and as
// merge once the daemons have refined them.
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
	// enough to exercise the selection pipeline, dense enough to pass
	// the walk rule's selection test.
	lPreds := []query.Predicate{{Attr: attrName(1), Lo: 0, Hi: 9 * p.Domain / 10}}
	rPreds := []query.Predicate{{Attr: attrName(1), Lo: p.Domain / 10, Hi: p.Domain}}
	j := lr.Join(query.New(rt, rExec, p.Threads), attrName(0), attrName(0), lPreds, rPreds)
	ja := lar.Join(query.New(rt, rAd, p.Threads), attrName(0), attrName(0), lPreds, rPreds)
	q := p.Queries / 10
	if q < 8 {
		q = 8
	}

	res := &Result{Headers: []string{"phase", "runner", "strategy", "µs/q", "checksum"}}

	// The very first join decides, by the walk rule, whether the join
	// keys enter the daemons' index spaces.
	before := ob.Query.Snapshot().Strategies
	firstStart := time.Now()
	firstN, err := j.Count()
	if err != nil {
		return nil, err
	}
	firstT := time.Since(firstStart)
	res.AddRow("first query", "holistic", ranStrategies(before, ob.Query.Snapshot().Strategies), us(firstT), fmt.Sprintf("%d", firstN))

	// One warm cell per runner, back to back while the daemons run:
	// nothing waits for the join keys' refinement, since the rule admits
	// a key only where a walk could repay it.
	adT, adRan, adSum, err := joinCell(ja, adOb, q)
	if err != nil {
		return nil, err
	}
	res.AddRow("warm", "adaptive", adRan, us(adT), fmt.Sprintf("%d", adSum))
	hoT, hoRan, hoSum, err := joinCell(j, ob, q)
	if err != nil {
		return nil, err
	}
	res.AddRow("warm", "holistic", hoRan, us(hoT), fmt.Sprintf("%d", hoSum))
	if hoSum != adSum {
		return nil, fmt.Errorf("join: checksums diverge (holistic %d, adaptive %d)", hoSum, adSum)
	}

	snap := ob.Query.Snapshot()
	res.AddPercentiles("join", snap.Latency["join"])
	res.AddNote("strategies the holistic runner executed, over every phase: %v", snap.Strategies)
	res.AddNote("workload: L ⋈ R on %s (M:N, %d-key pool, 0.9 overlap) over 2×%d rows, count+sum, 90%% filters; %d queries per cell",
		attrName(0), keys, p.ColumnSize, q)
	admitted := func(e *engine.Executor) bool { return e.Daemon().Registry().Get(attrName(0)) != nil }
	res.AddNote("join key %s admitted into the daemons' index spaces: L %v, R %v (daemon refinements %d + %d)",
		attrName(0), admitted(lExec), admitted(rExec), lExec.Daemon().Refinements(), rExec.Daemon().Refinements())
	res.AddNote("warm: holistic %.1fµs vs adaptive %.1fµs (%.2fx)",
		float64(hoT.Nanoseconds())/1000, float64(adT.Nanoseconds())/1000, float64(hoT)/float64(adT))
	return res, nil
}

package bench

import (
	"fmt"
	"math/rand"
	"time"

	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/tpch"
)

func init() {
	register("agg", "Aggregate pushdown: TPC-H Q6-style sums over range predicates (new)", runAgg)
}

// aggOp is one query of the aggregate workload: a Q6-style revenue sum
// and min/max over an extendedprice band, plus a count over a shipdate
// year window and a one-week row materialization — the select/aggregate/
// project mix Q6 pushes through a column-store.
type aggOp struct {
	bandLo, bandHi int64 // l_extendedprice band
	yearLo, yearHi int64 // l_shipdate year window
	weekLo, weekHi int64 // l_shipdate week window (row materialization)
}

// aggWorkload derives the predicate sequence from qgen-style variants:
// year windows from the Q6 parameters, price bands uniform over the
// observed extendedprice domain.
func aggWorkload(p Params, data *tpch.Data, n int) []aggOp {
	ext := data.Lineitem.Column("l_extendedprice").Values()
	var maxExt int64
	for _, v := range ext {
		if v > maxExt {
			maxExt = v
		}
	}
	variants := tpch.Variants(n, p.Seed+1)
	rng := rand.New(rand.NewSource(p.Seed + 2))
	ops := make([]aggOp, n)
	for i, v := range variants {
		bandW := maxExt / 10
		bandLo := rng.Int63n(maxExt - bandW + 1)
		weekLo := tpch.YearDay(v.Q6Year) + rng.Int63n(358)
		ops[i] = aggOp{
			bandLo: bandLo, bandHi: bandLo + bandW,
			yearLo: tpch.YearDay(v.Q6Year), yearHi: tpch.YearDay(v.Q6Year + 1),
			weekLo: weekLo, weekHi: weekLo + 7,
		}
	}
	return ops
}

// runAggMode drives the workload through one executor, returning the
// elapsed time and a cross-mode checksum over every result.
func runAggMode(exec *engine.Executor, ops []aggOp) (time.Duration, int64, error) {
	var checksum int64
	start := time.Now()
	for _, op := range ops {
		revenue, err := exec.Sum("l_extendedprice", op.bandLo, op.bandHi)
		if err != nil {
			return 0, 0, err
		}
		mn, mx, ok, err := exec.MinMax("l_extendedprice", op.bandLo, op.bandHi)
		if err != nil {
			return 0, 0, err
		}
		n, err := exec.Count("l_shipdate", op.yearLo, op.yearHi)
		if err != nil {
			return 0, 0, err
		}
		rows, err := exec.SelectRows("l_shipdate", op.weekLo, op.weekHi)
		if err != nil {
			return 0, 0, err
		}
		checksum += revenue + int64(n) + int64(len(rows))
		if ok {
			checksum += mn + mx
		}
	}
	return time.Since(start), checksum, nil
}

func runAgg(p Params) (*Result, error) {
	data := tpch.Generate(p.TPCHOrders, p.Seed)
	li := data.Lineitem
	nOps := 100
	if p.Queries < 400 {
		nOps = p.Queries / 4
	}
	if nOps < 10 {
		nOps = 10
	}
	ops := aggWorkload(p, data, nOps)

	crackCfg := pvdcConfig(p, p.Threads)
	user := p.Threads / 2
	if user < 1 {
		user = 1
	}
	userCfg := pvdcConfig(p, user)

	modes := []struct {
		label string
		build func() *engine.Executor
		prep  func(*engine.Executor) time.Duration
	}{
		{"no indexing", func() *engine.Executor { return engine.NewScanExecutor(li, p.Threads) }, nil},
		{"offline indexing", func() *engine.Executor { return engine.NewOfflineExecutor(li, p.Threads) },
			func(e *engine.Executor) time.Duration {
				start := time.Now()
				e.PrepareAll()
				return time.Since(start)
			}},
		{"adaptive indexing", func() *engine.Executor { return engine.NewAdaptiveExecutor(li, crackCfg, "") }, nil},
		{"mP-CCGI", func() *engine.Executor {
			return engine.NewCCGIExecutor(li, p.Threads, 64, cracking.Config{Seed: p.Seed})
		}, nil},
		{"holistic indexing", func() *engine.Executor {
			return engine.NewHolisticExecutor(li, engine.HolisticConfig{
				Cracking: userCfg,
				Daemon: holistic.Config{
					Interval:    p.Interval,
					Refinements: p.Refinements,
					Seed:        p.Seed,
				},
				L1Values:    p.L1Values,
				Contexts:    p.Threads,
				UserThreads: user,
				StatsSeed:   p.Seed,
			})
		}, nil},
	}

	r := &Result{Headers: []string{"mode", "total (s)", "checksum"}}
	var firstChecksum int64
	var mismatch string
	for i, m := range modes {
		exec := m.build()
		var elapsed time.Duration
		if m.prep != nil {
			// No idle time before the first query: preparation cost is
			// charged to the workload, as everywhere else in Section 5.
			elapsed += m.prep(exec)
		}
		d, checksum, err := runAggMode(exec, ops)
		exec.Close()
		if err != nil {
			return nil, err
		}
		elapsed += d
		if i == 0 {
			firstChecksum = checksum
		} else if checksum != firstChecksum && mismatch == "" {
			mismatch = fmt.Sprintf("%s computed %d, %s computed %d", m.label, checksum, modes[0].label, firstChecksum)
		}
		r.AddRow(m.label, secs(elapsed), fmt.Sprintf("%d", checksum))
	}
	if mismatch != "" {
		return nil, fmt.Errorf("agg: cross-mode checksum mismatch: %s", mismatch)
	}
	r.AddNote("workload: %d ops over %d lineitems — Q6-style revenue sum + min/max per extendedprice band, count per shipdate year, rows per shipdate week", nOps, li.Rows())
	r.AddNote("all modes agree on the checksum; aggregation is pushed into each mode's access path (pieces / sorted slices / parallel chunks)")
	return r, nil
}

package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/workload"
)

func init() {
	register("ablation-pivot", "Pivot choice: random vs biggest vs smallest piece (Section 4.2 discussion)", runAblationPivot)
	register("ablation-latch", "Worker latching: try-and-reroll vs blocking (Figure 3 discussion)", runAblationLatch)
	register("ablation-l1", "Optimal piece size |L1| sweep (Equation 1)", runAblationL1)
}

// runAblationPivot quantifies the paper's argument for random pivots:
// targeting the biggest (or smallest) piece requires finding it, which
// costs a scan over the piece list per refinement, while random pivots
// cost nothing and converge to a balanced index anyway.
func runAblationPivot(p Params) (*Result, error) {
	const refinements = 512
	type policy struct {
		label string
		pick  func(c *cracking.Column, rng *rand.Rand) int64
	}
	policies := []policy{
		{"random", func(c *cracking.Column, rng *rand.Rand) int64 {
			lo, hi := c.Domain()
			if hi <= lo {
				return lo
			}
			return lo + rng.Int63n(hi-lo+1)
		}},
		{"biggest piece", func(c *cracking.Column, rng *rand.Rand) int64 {
			var best cracking.PieceInfo
			for _, pi := range c.PieceBounds() { // the maintenance scan the paper avoids
				if pi.Size() > best.Size() {
					best = pi
				}
			}
			return midKey(c, best)
		}},
		{"smallest piece", func(c *cracking.Column, rng *rand.Rand) int64 {
			pieces := c.PieceBounds()
			best := pieces[0]
			for _, pi := range pieces {
				if pi.Size() > p.L1Values && (best.Size() <= p.L1Values || pi.Size() < best.Size()) {
					best = pi
				}
			}
			return midKey(c, best)
		}},
	}

	r := &Result{Headers: []string{"policy", "refine time (ms)", "pieces", "avg piece", "max piece"}}
	for _, pol := range policies {
		base := workload.UniformColumn(p.ColumnSize, p.Domain, p.Seed)
		c := cracking.New("a", base, cracking.Config{})
		rng := rand.New(rand.NewSource(p.Seed))
		start := time.Now()
		for i := 0; i < refinements; i++ {
			c.TryRefineAt(pol.pick(c, rng), p.L1Values)
		}
		elapsed := time.Since(start)
		maxPiece := 0
		for _, pi := range c.PieceBounds() {
			if pi.Size() > maxPiece {
				maxPiece = pi.Size()
			}
		}
		r.AddRow(pol.label, ms(elapsed), fmt.Sprintf("%d", c.Pieces()),
			fmt.Sprintf("%.0f", c.AvgPieceSize()), fmt.Sprintf("%d", maxPiece))
	}
	r.AddNote("%d refinement attempts per policy on one %d-value column", refinements, p.ColumnSize)
	r.AddNote("paper's argument: random needs no auxiliary structure or scans and still balances the index")
	return r, nil
}

// runAblationLatch compares the paper's never-block worker (failed
// try-latch => re-roll pivot) against a worker that waits on the latch,
// measuring the impact on concurrent user-query latency.
func runAblationLatch(p Params) (*Result, error) {
	queries := p.Queries
	if queries > 300 {
		queries = 300
	}
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: queries, Domain: p.Domain,
		Attrs: 1, OneSided: true, Seed: p.Seed,
	})

	run := func(blocking bool) (time.Duration, int64, error) {
		pp := p
		pp.Attrs = 1
		t := buildTable(pp)
		e := engine.NewAdaptiveExecutor(t, pvdcConfig(p, 1), "")
		defer e.Close()
		if _, err := e.Count(attrName(0), 0, 1); err != nil { // materialize cracker
			return 0, 0, err
		}
		c := e.CrackerIfExists(attrName(0))

		stop := make(chan struct{})
		var refines atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi := c.Domain()
				pivot := lo + rng.Int63n(hi-lo+1)
				if blocking {
					c.CrackAt(pivot)
					refines.Add(1)
				} else if c.TryRefineAt(pivot, p.L1Values) == cracking.RefineDone {
					refines.Add(1)
				}
			}
		}()
		times, err := timeQueries(e, qs)
		close(stop)
		wg.Wait()
		if err != nil {
			return 0, 0, err
		}
		return sum(times), refines.Load(), nil
	}

	r := &Result{Headers: []string{"worker mode", "query cost (s)", "worker refinements"}}
	for _, blocking := range []bool{false, true} {
		label := "try-latch + re-roll (paper)"
		if blocking {
			label = "blocking"
		}
		cost, refines, err := run(blocking)
		if err != nil {
			return nil, err
		}
		r.AddRow(label, secs(cost), fmt.Sprintf("%d", refines))
	}
	r.AddNote("blocking workers hold user queries back on hot pieces; try-latch never does (Figure 3)")
	return r, nil
}

func runAblationL1(p Params) (*Result, error) {
	queries := p.Queries
	if queries > 500 {
		queries = 500
	}
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: queries, Domain: p.Domain,
		Attrs: p.Attrs, OneSided: true, Seed: p.Seed,
	})
	r := &Result{Headers: []string{"|L1| (values)", "total cost (s)", "final partitions"}}
	for _, l1 := range []int{256, 1024, 4096, 16384, 65536} {
		pp := p
		pp.L1Values = l1
		pp.Queries = queries
		e := newHolistic(pp, buildTable(pp))
		times, err := timeQueries(e, qs)
		pieces := e.TotalPieces()
		e.Close()
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", l1), secs(sum(times)), fmt.Sprintf("%d", pieces))
	}
	r.AddNote("Equation 1: below the L1 working set further cracking adds administration cost without scan benefit")
	return r, nil
}

// midKey returns a pivot in the middle of a piece's value span, clamped
// to the column domain.
func midKey(c *cracking.Column, pi cracking.PieceInfo) int64 {
	lo, hi := pi.LoKey, pi.HiKey
	dLo, dHi := c.Domain()
	if lo < dLo {
		lo = dLo
	}
	if hi > dHi {
		hi = dHi + 1
	}
	if hi <= lo {
		return lo
	}
	return lo + (hi-lo)/2
}

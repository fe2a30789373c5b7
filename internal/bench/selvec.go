package bench

import (
	"fmt"
	"runtime"
	"time"

	"holistic/internal/column"
	"holistic/internal/engine"
	"holistic/internal/obs"
	"holistic/internal/query"
	"holistic/internal/workload"
)

func init() {
	register("selvec", "Selection-vector representation sweep: bitmap vs position-list intermediates across driving selectivity (new)", runSelVec)
}

// us formats a duration in microseconds with 1 decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// selVecSelectivities are the driving-conjunct selectivities the sweep
// visits, bracketing the crossover from both sides.
var selVecSelectivities = []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5}

// selVecCell times one (selectivity, counter) cell: q two-conjunct count
// queries whose driving conjunct covers sel of the domain at a rotating
// offset, returning their latency digest, allocations/query and a
// checksum.
func selVecCell(count func([]query.Predicate) (int, error), sel float64, domain int64, q int, seed int64) (lat obs.LatencySummary, allocs float64, checksum int64, err error) {
	span := int64(sel * float64(domain))
	if span < 1 {
		span = 1
	}
	if span > domain {
		span = domain
	}
	room := domain - span + 1 // lo ∈ [0, room); ≥ 1 even for tiny -domain
	resHi := 3 * domain / 4   // residual conjunct keeps ~75%
	preds := func(lo int64) []query.Predicate {
		return []query.Predicate{{Attr: attrName(0), Lo: lo, Hi: lo + span}, {Attr: attrName(1), Lo: 0, Hi: resHi}}
	}
	// One warm-up query fills the pooled scratch before measuring.
	if _, err := count(preds(seed % room)); err != nil {
		return lat, 0, 0, err
	}
	var h obs.Histogram
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < q; i++ {
		start := time.Now()
		n, err := count(preds((seed + int64(i)*7919) % room))
		h.Record(time.Since(start))
		if err != nil {
			return lat, 0, 0, err
		}
		checksum += int64(n)
	}
	runtime.ReadMemStats(&ms1)
	return h.Summary(), float64(ms1.Mallocs-ms0.Mallocs) / float64(q), checksum, nil
}

// kernelCount is a two-conjunct count composed by hand at the kernel
// layer, the way the runner's scan path composes it, in one
// representation: the driving conjunct fills a column.Selection
// (ParallelScanRange for a position list, ParallelScanRangeBitmap for a
// bitmap), the residual refines it through View.Filter, and Count
// counts it.
func kernelCount(t *engine.Table, dense bool, threads int) func([]query.Predicate) (int, error) {
	s := column.Selection{Bits: column.NewBitmap(0), Dense: dense}
	return func(preds []query.Predicate) (int, error) {
		drive, res := preds[0], preds[1]
		vals := t.Column(drive.Attr).Values()
		if dense {
			column.ParallelScanRangeBitmap(vals, drive.Lo, drive.Hi, s.Bits, threads)
		} else {
			s.Rows = column.ParallelScanRange(vals, drive.Lo, drive.Hi, threads)
		}
		column.View{Base: t.Column(res.Attr).Values()}.Filter(&s, res.Lo, res.Hi, threads)
		return s.Count(), nil
	}
}

// runSelVec is the selvec experiment: it validates the bitmap/poslist
// crossover rule by sweeping the driving conjunct's selectivity over a
// two-conjunct count workload — the representation question isolated
// from index refinement. Both representations are timed at the kernel
// layer (kernelCount), beside the scan-mode runner, whose crossover rule
// picks one of them per query; its cells are the result's percentile
// labels, which a -baseline run gates. The allocation columns show the
// bitmap's allocation-free steady state.
func runSelVec(p Params) (*Result, error) {
	t := engine.NewTable("R")
	for a := 0; a < 2; a++ {
		t.MustAddColumn(columnFor(p, a))
	}
	exec := engine.NewScanExecutor(t, p.Threads)
	defer exec.Close()
	r := query.New(t, exec, p.Threads)
	poslist, bitmap := kernelCount(t, false, p.Threads), kernelCount(t, true, p.Threads)

	q := p.Queries / 25
	if q < 8 {
		q = 8
	}
	res := &Result{Headers: []string{"drive sel", "poslist µs/q", "bitmap µs/q", "auto µs/q", "auto rep", "poslist allocs/q", "bitmap allocs/q", "bitmap speedup"}}
	for _, sel := range selVecSelectivities {
		pl, plAllocs, plSum, err := selVecCell(poslist, sel, p.Domain, q, p.Seed)
		if err != nil {
			return nil, err
		}
		bm, bmAllocs, bmSum, err := selVecCell(bitmap, sel, p.Domain, q, p.Seed)
		if err != nil {
			return nil, err
		}
		if plSum != bmSum {
			return nil, fmt.Errorf("selvec: representations disagree at sel %.3f: poslist %d, bitmap %d", sel, plSum, bmSum)
		}
		auto, _, autoSum, err := selVecCell(r.Count, sel, p.Domain, q, p.Seed)
		if err != nil {
			return nil, err
		}
		if autoSum != plSum {
			return nil, fmt.Errorf("selvec: auto disagrees at sel %.3f: %d vs %d", sel, autoSum, plSum)
		}
		autoRep := "poslist"
		if sel >= query.DefaultBitmapCrossover {
			autoRep = "bitmap"
		}
		res.AddPercentiles(fmt.Sprintf("auto/%.1f%%", sel*100), auto)
		res.AddRow(
			fmt.Sprintf("%.1f%%", sel*100),
			fmt.Sprintf("%.1f", pl.MeanUS), fmt.Sprintf("%.1f", bm.MeanUS), fmt.Sprintf("%.1f", auto.MeanUS),
			autoRep,
			fmt.Sprintf("%.1f", plAllocs),
			fmt.Sprintf("%.1f", bmAllocs),
			fmt.Sprintf("%.2fx", pl.MeanUS/bm.MeanUS),
		)
	}
	res.AddNote("two-conjunct counts over %d values, %d queries per cell, %d threads; residual conjunct keeps 75%%", p.ColumnSize, q, p.Threads)
	res.AddNote("poslist and bitmap: the scan kernels composed by hand (select, View.Filter, Count); auto: the scan-mode query runner")
	res.AddNote("auto crossover: drive selectivity >= %.1f%% picks the word-packed bitmap (query.DefaultBitmapCrossover)", query.DefaultBitmapCrossover*100)
	res.AddNote("columns µs/q: microseconds per query; allocs/q from runtime.MemStats across the cell (parallel kernels cost O(workers) goroutine allocations, the bitmap path itself allocates nothing)")
	return res, nil
}

// columnFor builds attribute a of the synthetic relation at the
// experiment's scale.
func columnFor(p Params, a int) *column.Column {
	return column.New(attrName(a), workload.UniformColumn(p.ColumnSize, p.Domain, p.Seed+int64(a)))
}

package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"holistic"
	"holistic/internal/tpch"
)

func init() {
	register("fig14", "TPC-H Q1/Q6/Q12 under four execution modes (Figure 14)", runFig14)
}

func runFig14(p Params) (*Result, error) {
	data := tpch.Generate(p.TPCHOrders, p.Seed)
	variants := tpch.Variants(30, p.Seed+1)

	modes := []tpch.Mode{tpch.ModeScan, tpch.ModePresorted, tpch.ModeCracking, tpch.ModeHolistic}
	queries := []struct {
		label string
		sort  string
		run   func(r *tpch.Runner, v tpch.QueryVariant)
	}{
		{"Q1", "l_shipdate", func(r *tpch.Runner, v tpch.QueryVariant) { r.Q1(v.Q1Delta) }},
		{"Q6", "l_shipdate", func(r *tpch.Runner, v tpch.QueryVariant) { r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity) }},
		{"Q12", "l_receiptdate", func(r *tpch.Runner, v tpch.QueryVariant) { r.Q12(v.Q12Mode1, v.Q12Mode2, v.Q12Year) }},
	}
	// The figure times query execution: the Store's flight ring and
	// watchdog stay off, as the paper's system had none.
	cfg := holistic.Config{
		Threads:              p.Threads,
		TuningInterval:       p.Interval,
		RefinementsPerWorker: p.Refinements,
		L1CacheBytes:         p.L1Values * 8,
		Seed:                 p.Seed,
		FlightEvents:         -1,
	}

	res := &Result{Headers: []string{"query", "mode", "first (ms)", "rest avg (ms)", "total 30 (ms)", "presort (ms)"}}
	for _, q := range queries {
		for _, m := range modes {
			runner := tpch.NewRunner(data, m, cfg)
			runner.Prepare(q.sort)
			times := make([]time.Duration, len(variants))
			for i, v := range variants {
				start := time.Now()
				q.run(runner, v)
				times[i] = time.Since(start)
			}
			runner.Close()
			total := sum(times)
			rest := time.Duration(0)
			if len(times) > 1 {
				rest = (total - times[0]) / time.Duration(len(times)-1)
			}
			res.AddRow(q.label, m.String(), ms(times[0]), ms(rest), ms(total), ms(runner.PrepareTime))
		}
	}
	res.AddNote("lineitem rows: %d (%d orders); presort cost reported separately, as the paper excludes it from query times", data.Lineitem.Rows(), p.TPCHOrders)
	res.AddNote("%s", fig14Shape(res.Rows))
	return res, nil
}

// fig14Shape checks the paper's shape on fig14's rows, per query: the
// first cracking and the first holistic query are each slower than the
// first presorted one (they build the index the presort paid for), and
// holistic's total is at most cracking's. It prints the numbers it
// compared and whether the shape holds.
func fig14Shape(rows [][]string) string {
	type cell struct{ first, total float64 }
	cells := map[string]map[string]cell{}
	var order []string
	for _, row := range rows {
		first, err1 := strconv.ParseFloat(row[2], 64)
		total, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if cells[row[0]] == nil {
			cells[row[0]] = map[string]cell{}
			order = append(order, row[0])
		}
		cells[row[0]][row[1]] = cell{first, total}
	}
	presorted, cracking, hol := tpch.ModePresorted.String(), tpch.ModeCracking.String(), tpch.ModeHolistic.String()
	parts := make([]string, 0, len(order))
	for _, q := range order {
		c := cells[q]
		p, pok := c[presorted]
		k, kok := c[cracking]
		h, hok := c[hol]
		verdict := "does not hold"
		if pok && kok && hok && k.first > p.first && h.first > p.first && h.total <= k.total {
			verdict = "holds"
		}
		parts = append(parts, fmt.Sprintf("%s first cracking %.1f, holistic %.1f vs presorted %.1f ms; total holistic %.1f vs cracking %.1f ms: %s",
			q, k.first, h.first, p.first, h.total, k.total, verdict))
	}
	return "paper shape (first cracking and holistic query slower than first presorted; holistic total <= cracking total): " + strings.Join(parts, "; ")
}

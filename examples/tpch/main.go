// TPC-H mini-benchmark: Q1, Q6 and Q12 under the four execution modes of
// the paper's Figure 14 — plain scans, a pre-sorted projection, cracking
// and holistic indexing. Every mode but the pre-sorted one runs LINEITEM
// through a holistic.Store (scan, adaptive and holistic modes).
//
// Q6 runs as a real three-predicate conjunction (l_shipdate ∧
// l_discount ∧ l_quantity): the Store's planner orders the conjuncts by
// estimated selectivity, the most selective one runs through the mode's
// access path, and the rest refine its candidate rows. Under holistic
// indexing the conjunct columns join the daemon's index space.
//
//	go run ./examples/tpch
package main

import (
	"fmt"
	"time"

	"holistic"
	"holistic/internal/tpch"
)

const (
	orders   = 50_000
	variants = 10
)

func main() {
	fmt.Printf("generating TPC-H data (%d orders)...\n", orders)
	data := tpch.Generate(orders, 42)
	fmt.Printf("lineitem: %d rows\n\n", data.Lineitem.Rows())
	vs := tpch.Variants(variants, 7)

	modes := []tpch.Mode{tpch.ModeScan, tpch.ModePresorted, tpch.ModeCracking, tpch.ModeHolistic}
	fmt.Println("Q6* = three-predicate conjunction (shipdate ∧ discount ∧ quantity), planner-ordered")
	fmt.Printf("%-20s %-6s %12s %12s %12s\n", "mode", "query", "first", "rest avg", "total")
	for _, m := range modes {
		r := tpch.NewRunner(data, m, holistic.Config{
			TuningInterval:       2 * time.Millisecond,
			RefinementsPerWorker: 16,
			L1CacheBytes:         4096 * 8,
			Threads:              2,
			Seed:                 1,
		})
		r.Prepare("l_shipdate", "l_receiptdate")

		report := func(label string, run func(v tpch.QueryVariant)) {
			times := make([]time.Duration, len(vs))
			for i, v := range vs {
				start := time.Now()
				run(v)
				times[i] = time.Since(start)
			}
			var total time.Duration
			for _, t := range times {
				total += t
			}
			rest := time.Duration(0)
			if len(times) > 1 {
				rest = (total - times[0]) / time.Duration(len(times)-1)
			}
			fmt.Printf("%-20s %-6s %12v %12v %12v\n", m, label,
				times[0].Round(time.Microsecond), rest.Round(time.Microsecond), total.Round(time.Microsecond))
		}

		report("Q1", func(v tpch.QueryVariant) { r.Q1(v.Q1Delta) })
		report("Q6*", func(v tpch.QueryVariant) { r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity) })
		report("Q12", func(v tpch.QueryVariant) { r.Q12(v.Q12Mode1, v.Q12Mode2, v.Q12Year) })
		if m == tpch.ModePresorted {
			fmt.Printf("%-20s (pre-sorting cost excluded above: %v)\n", "", r.PrepareTime.Round(time.Millisecond))
		}
		r.Close()
		fmt.Println()
	}

	// Show one actual result so the demo is verifiable.
	r := tpch.NewRunner(data, tpch.ModeScan, holistic.Config{})
	defer r.Close()
	fmt.Println("sample Q1 output (delta=90):")
	for _, row := range r.Q1(90) {
		fmt.Printf("  %s | %s | qty %12d | base $%14.2f | count %8d\n",
			row.ReturnFlag, row.LineStatus, row.SumQty, float64(row.SumBase)/100, row.Count)
	}
}

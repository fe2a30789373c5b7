package holistic_test

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"holistic"
	"holistic/internal/obs/flight"
)

// Example demonstrates the zero-administration workflow: load columns,
// query, and let holistic indexing tune the physical design on idle CPU
// contexts.
func Example() {
	store := holistic.NewStore(holistic.Config{
		Mode:           holistic.ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	defer store.Close()

	prices := make([]int64, 100_000)
	for i := range prices {
		prices[i] = int64(i * 7 % 10_000)
	}
	if err := store.AddIntColumn("price", prices); err != nil {
		fmt.Println(err)
		return
	}

	n, err := store.CountRange("price", 1000, 2000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d rows with 1000 <= price < 2000\n", n)
	// Output:
	// 10000 rows with 1000 <= price < 2000
}

// ExampleStore_Query demonstrates a multi-predicate conjunction with
// selectivity-ordered planning and late tuple reconstruction.
func ExampleStore_Query() {
	store := holistic.NewStore(holistic.Config{
		Mode:           holistic.ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	defer store.Close()

	n := 100_000
	price := make([]int64, n)
	qty := make([]int64, n)
	day := make([]int64, n)
	for i := 0; i < n; i++ {
		price[i] = int64(i * 7 % 10_000)
		qty[i] = int64(i % 50)
		day[i] = int64(i % 365)
	}
	store.AddIntColumn("price", price)
	store.AddIntColumn("quantity", qty)
	store.AddIntColumn("day", day)

	// The planner drives the most selective conjunct through the
	// mode's access path; the rest probe positionally.
	count, err := store.Query().
		Where("day", 0, 31).        // January
		Where("price", 1000, 2000). // a price band
		Where("quantity", 0, 10).   // small orders
		Count()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d qualifying rows\n", count)
	// Output:
	// 146 qualifying rows
}

// ExampleQuery_Join demonstrates an equi-join between two stores:
// lineitems join their orders, with aggregate and grouped terminals
// over either side's columns.
func ExampleQuery_Join() {
	orders := holistic.NewStore(holistic.Config{Mode: holistic.ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	items := holistic.NewStore(holistic.Config{Mode: holistic.ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer orders.Close()
	defer items.Close()

	orders.AddIntColumn("o_id", []int64{0, 1, 2, 3})
	orders.AddIntColumn("region", []int64{0, 1, 0, 1})
	items.AddIntColumn("order", []int64{0, 0, 1, 2, 2, 2})
	items.AddIntColumn("price", []int64{10, 20, 30, 40, 50, 60})

	// Total revenue of every item whose order exists.
	revenue, err := items.Query().
		Join(orders.Query(), "order", "o_id").
		Sum("price")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("revenue %d\n", revenue)

	// Revenue by the order's region: a join→group pipeline — the group
	// key comes from the orders side, the aggregate from the items side.
	res, err := items.Query().
		Join(orders.Query(), "order", "o_id").
		GroupBy("region").
		Aggregate(holistic.Count(), holistic.Sum("price"))
	if err != nil {
		fmt.Println(err)
		return
	}
	for g := 0; g < res.Len(); g++ {
		fmt.Printf("region %d: %d items, revenue %d\n", res.Keys[0][g], res.Aggs[0][g], res.Aggs[1][g])
	}
	// Output:
	// revenue 210
	// region 0: 5 items, revenue 180
	// region 1: 1 items, revenue 30
}

// ExampleQuery_GroupBy demonstrates grouped aggregation: a fused
// count/sum/max plan over the rows surviving a range predicate, grouped
// by region, returned as an ordered result table.
func ExampleQuery_GroupBy() {
	store := holistic.NewStore(holistic.Config{
		Mode:           holistic.ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	defer store.Close()

	n := 100_000
	region := make([]int64, n) // dictionary codes 0..3
	sales := make([]int64, n)
	day := make([]int64, n)
	for i := 0; i < n; i++ {
		region[i] = int64(i % 4)
		sales[i] = int64(i*13%997 + 1)
		day[i] = int64(i % 365)
	}
	store.AddIntColumn("region", region)
	store.AddIntColumn("sales", sales)
	store.AddIntColumn("day", day)

	res, err := store.Query().
		Where("day", 0, 31). // January
		GroupBy("region").
		Aggregate(holistic.Count(), holistic.Sum("sales"), holistic.Max("sales"))
	if err != nil {
		fmt.Println(err)
		return
	}
	for g := 0; g < res.Len(); g++ {
		fmt.Printf("region %d: %d rows, sum %d, max %d\n",
			res.Keys[0][g], res.Aggs[0][g], res.Aggs[1][g], res.Aggs[2][g])
	}
	// Output:
	// region 0: 2123 rows, sum 1058619, max 997
	// region 1: 2124 rows, sum 1057471, max 997
	// region 2: 2124 rows, sum 1062035, max 997
	// region 3: 2123 rows, sum 1058219, max 997
}

// ExampleStore_Metrics demonstrates the telemetry snapshot: lifetime
// query counters with latency percentiles, the physical choices made,
// and (under ModeHolistic) the daemon's convergence state. The same snapshot is served per store on
// /debug/holistic (cmd/holisticserve).
func ExampleStore_Metrics() {
	store := holistic.NewStore(holistic.Config{Mode: holistic.ModeAdaptive, Threads: 1})
	defer store.Close()

	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = int64(i * 31 % 9973)
	}
	store.AddIntColumn("x", vals)
	store.AddIntColumn("y", vals)

	for lo := int64(0); lo < 3000; lo += 1000 {
		store.Query().Where("x", lo, lo+2000).Where("y", 0, 9000).Count()
	}

	m := store.Metrics()
	lat := m.Query.Latency["count"]
	fmt.Printf("mode %s: %d queries, %d count latencies recorded, p99 > 0: %v\n",
		m.Mode, m.Query.Queries, lat.Count, lat.P99US > 0)
	fmt.Printf("bitmap selections: %v, cracker builds: %d\n",
		m.Query.Representations["bitmap"] > 0, m.Exec.CrackerBuilds)
	// Output:
	// mode adaptive: 3 queries, 3 count latencies recorded, p99 > 0: true
	// bitmap selections: true, cracker builds: 1
}

// ExampleStore_FlightDump demonstrates the flight recorder: every
// query, representation decision and strategy choice lands in a
// bounded lock-free ring, which FlightDump encodes as a checksummed
// frame that flight.Decode round-trips. The watchdog writes the same
// format into the data directory when an SLO anomaly fires.
func ExampleStore_FlightDump() {
	store := holistic.NewStore(holistic.Config{Mode: holistic.ModeAdaptive, Threads: 1, Seed: 1})
	defer store.Close()

	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = int64(i * 31 % 9973)
	}
	store.AddIntColumn("x", vals)
	store.AddIntColumn("y", vals)
	for lo := int64(0); lo < 3000; lo += 1000 {
		store.Query().Where("x", lo, lo+2000).Where("y", 0, 9000).Count()
	}

	var buf bytes.Buffer
	if _, err := store.FlightDump(&buf); err != nil {
		fmt.Println(err)
		return
	}
	d, err := flight.Decode(buf.Bytes())
	if err != nil {
		fmt.Println(err)
		return
	}
	var queries, decisions int
	for _, e := range d.Events {
		switch e.Kind {
		case flight.EvQuery:
			queries++
		case flight.EvRep, flight.EvStrategy:
			decisions++
		}
	}
	fmt.Printf("trigger %s: %d query events, decision events recorded: %v\n",
		d.Trigger, queries, decisions > 0)
	// Output:
	// trigger manual: 3 query events, decision events recorded: true
}

// ExampleOpenStore persists a store to a data directory, reopens it
// after a (clean) shutdown, and shows the recovered adaptive state:
// the second open restores the cracked index the first session's
// queries built, so no re-cracking is needed.
func ExampleOpenStore() {
	dir, err := os.MkdirTemp("", "holistic-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	cfg := holistic.Config{Mode: holistic.ModeAdaptive, Threads: 1, SnapshotInterval: -1}

	store, err := holistic.OpenStore(dir, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = int64(i * 31 % 9973)
	}
	store.AddIntColumn("price", vals)
	store.Insert("price", 123)                             // logged to the WAL
	n, _ := store.Query().Where("price", 100, 200).Count() // cracks the column
	fmt.Println("first session count:", n)
	store.Close() // checkpoint + clean-shutdown marker

	reopened, err := holistic.OpenStore(dir, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer reopened.Close()
	rec := reopened.Metrics().Recovery
	fmt.Println("clean start:", rec.CleanStart, "replayed:", rec.ReplayedRecords,
		"restored indexes:", rec.RestoredIndexes)
	n, _ = reopened.Query().Where("price", 100, 200).Count()
	fmt.Println("recovered count:", n)
	// Output:
	// first session count: 504
	// clean start: true replayed: 0 restored indexes: 1
	// recovered count: 504
}

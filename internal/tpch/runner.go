package tpch

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"holistic"
	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/join"
)

// Mode is one of the four execution strategies of Figure 14.
type Mode int

const (
	// ModeScan is plain MonetDB: the Store's ModeScan, full-column scans.
	ModeScan Mode = iota
	// ModePresorted is offline indexing: a copy of LINEITEM re-sorted on
	// the query's predicate attribute ("the perfect projection").
	ModePresorted
	// ModeCracking stands in for sideways cracking: the Store's
	// ModeAdaptive, whose cracker columns carry row ids, so the projected
	// attributes of the qualifying tuples are reconstructed through them
	// instead of being dragged along as payload columns.
	ModeCracking
	// ModeHolistic is the Store's ModeHolistic: ModeCracking plus the
	// holistic daemon refining the crackers in the background.
	ModeHolistic
)

// modeNames are Figure 14's legend labels.
var modeNames = [...]string{
	ModeScan:      "MonetDB",
	ModePresorted: "Presorted MonetDB",
	ModeCracking:  "Cracking (row ids)",
	ModeHolistic:  "Holistic Indexing",
}

// storeModes maps every mode but ModePresorted to the Store mode that
// runs it; the Store has no perfect projection.
var storeModes = map[Mode]holistic.Mode{
	ModeScan:     holistic.ModeScan,
	ModeCracking: holistic.ModeAdaptive,
	ModeHolistic: holistic.ModeHolistic,
}

// String names the mode as Figure 14's legend does.
func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// projection is a copy of the LINEITEM columns re-ordered by one sort
// attribute: the "column-store projection" offline indexing builds.
type projection struct {
	sortKey []int64
	cols    map[string][]int64
}

// Runner executes the TPC-H queries under one mode.
type Runner struct {
	data *Data
	mode Mode

	// store holds LINEITEM and its derived columns under every mode but
	// ModePresorted (nil there): each query's LINEITEM side is one Store
	// query.
	store *holistic.Store

	// Columns the queries read, cached as raw slices.
	li   map[string][]int64
	ord  map[string][]int64
	cust map[string][]int64
	// prio[l_orderkey] is the order's priority code (dense positional
	// join index: o_orderkey is the dense 0..N-1 key the generator
	// produces, as in dbgen). Used by the hand-rolled Q12 oracle.
	prio []int64
	// prioHi[order row] is 1 when the order's priority is urgent or
	// high — the derived flag the subsystem-based Q12 sums per group.
	prioHi []int64
	// ordRows holds the identity row ids 0..N-1 shared by every join
	// input built over in-place relations (read-only, prefix-sliced).
	ordRows []uint32

	mu      sync.Mutex
	proj    map[string]*projection
	threads int

	// PrepareTime records how long Prepare spent building projections
	// (the pre-sorting cost Figure 14 reports separately: "8 sec").
	PrepareTime time.Duration
}

// NewRunner builds a runner. Every mode but ModePresorted loads LINEITEM
// into a Store configured by cfg, whose Mode the runner sets; cfg.Threads
// is also the scan and join parallelism. For ModePresorted call Prepare
// before querying (or the first query pays it lazily).
func NewRunner(data *Data, mode Mode, cfg holistic.Config) *Runner {
	r := &Runner{
		data:    data,
		mode:    mode,
		li:      make(map[string][]int64),
		ord:     make(map[string][]int64),
		cust:    make(map[string][]int64),
		proj:    make(map[string]*projection),
		threads: cfg.Threads,
	}
	if r.threads < 1 {
		r.threads = 2 // the Store's default
	}
	for _, name := range data.Lineitem.ColumnNames() {
		r.li[name] = data.Lineitem.Column(name).Values()
	}
	for _, name := range data.Orders.ColumnNames() {
		r.ord[name] = data.Orders.Column(name).Values()
	}
	for _, name := range data.Customer.ColumnNames() {
		r.cust[name] = data.Customer.Column(name).Values()
	}
	// Materialized derived columns for the grouped-aggregation form of
	// Q1: discounted price and charge, computed once with exactly the
	// fixed-point arithmetic of the hand-rolled oracle (q1acc.add), so
	// the subsystem's sums are byte-identical to the oracle's. They join
	// r.li like base attributes, so pre-sorted projections reorder them.
	ext, disc, tax := r.li["l_extendedprice"], r.li["l_discount"], r.li["l_tax"]
	dp := make([]int64, len(ext))
	charge := make([]int64, len(ext))
	for i := range ext {
		dp[i] = ext[i] * (10000 - disc[i]) / 10000
		charge[i] = dp[i] * (10000 + tax[i]) / 10000
	}
	r.li["l_discprice"] = dp
	r.li["l_charge"] = charge
	okeys := data.Orders.Column("o_orderkey").Values()
	prios := data.Orders.Column("o_orderpriority").Values()
	r.prio = make([]int64, len(okeys))
	for i, k := range okeys {
		r.prio[k] = prios[i]
	}
	r.prioHi = make([]int64, len(prios))
	for i, p := range prios {
		if p <= 1 {
			r.prioHi[i] = 1
		}
	}
	r.ordRows = identityRows(len(okeys))
	if sm, ok := storeModes[mode]; ok {
		cfg.Mode = sm
		r.store = holistic.NewStore(cfg)
		for _, name := range slices.Sorted(maps.Keys(r.li)) {
			r.mustAdd(name, r.li[name])
		}
		// Two more derived columns turn Q6 and Q12 into one Store query
		// each: Q6's per-row revenue, and Q12's flag for lines committed
		// before receipt and shipped before commit.
		commit, receipt, ship := r.li["l_commitdate"], r.li["l_receiptdate"], r.li["l_shipdate"]
		rev := make([]int64, len(ext))
		late := make([]int64, len(ext))
		for i := range ext {
			rev[i] = ext[i] * disc[i] / 10000
			if commit[i] < receipt[i] && ship[i] < commit[i] {
				late[i] = 1
			}
		}
		r.mustAdd("l_revenue", rev)
		r.mustAdd("l_late", late)
	}
	return r
}

func (r *Runner) mustAdd(name string, vals []int64) {
	if err := r.store.AddIntColumn(name, vals); err != nil {
		panic(err)
	}
}

// Close releases the Store, stopping its daemon under ModeHolistic.
func (r *Runner) Close() {
	if r.store != nil {
		r.store.Close()
	}
}

// Mode returns the runner's execution mode.
func (r *Runner) Mode() Mode { return r.mode }

// Prepare builds the pre-sorted projections (ModePresorted only): one
// copy of LINEITEM sorted on each of the given attributes. Its cost is
// recorded in PrepareTime.
func (r *Runner) Prepare(sortAttrs ...string) {
	if r.mode != ModePresorted {
		return
	}
	start := time.Now()
	for _, attr := range sortAttrs {
		r.projection(attr)
	}
	r.PrepareTime = time.Since(start)
}

func (r *Runner) projection(attr string) *projection {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.proj[attr]; ok {
		return p
	}
	key := r.li[attr]
	perm := make([]int, len(key))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return key[perm[a]] < key[perm[b]] })
	p := &projection{cols: make(map[string][]int64)}
	p.sortKey = make([]int64, len(key))
	for i, src := range perm {
		p.sortKey[i] = key[src]
	}
	for name, vals := range r.li {
		if name == attr {
			p.cols[name] = p.sortKey
			continue
		}
		re := make([]int64, len(vals))
		for i, src := range perm {
			re[i] = vals[src]
		}
		p.cols[name] = re
	}
	r.proj[attr] = p
	return p
}

// identityRows returns the row ids 0..n-1 — the Rows of a join input
// built over a relation scanned in place.
func identityRows(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// values runs a Store query's Values terminal; the runner's queries are
// well-formed, so an error is a bug.
func values(q *holistic.Query, attrs ...string) [][]int64 {
	cols, err := q.Values(attrs...)
	if err != nil {
		panic(err)
	}
	return cols
}

// Q1Row is one group of the Q1 pricing summary report.
type Q1Row struct {
	ReturnFlag string
	LineStatus string
	SumQty     int64
	SumBase    int64 // cents
	SumDisc    int64 // cents, extprice*(1-discount)
	SumCharge  int64 // cents, extprice*(1-discount)*(1+tax)
	Count      int64
}

// Q1 runs the pricing summary report: lines with
// l_shipdate <= 1998-12-01 - delta days, grouped by returnflag and
// linestatus: one fused multi-aggregate plan — four sums and a count in
// a single pass — over the composite (returnflag, linestatus) key. Every
// Store mode asks it as one grouped Store query; the pre-sorted
// projection groups its contiguous window through internal/groupby. The
// retained hand-rolled loop (Q1Oracle) serves as the differential
// oracle: both must return byte-identical rows.
func (r *Runner) Q1(delta int64) []Q1Row {
	cutoff := Q1CutoffBase - delta // shipdate <= cutoff, i.e. < cutoff+1
	var keys, aggs [][]int64
	if r.store != nil {
		res, err := r.store.Query().Where("l_shipdate", math.MinInt64, cutoff+1).
			GroupBy("l_returnflag", "l_linestatus").
			Aggregate(holistic.Sum("l_quantity"), holistic.Sum("l_extendedprice"),
				holistic.Sum("l_discprice"), holistic.Sum("l_charge"), holistic.Count())
		if err != nil {
			panic(err)
		}
		keys, aggs = res.Keys, res.Aggs
	} else {
		p := r.projection("l_shipdate")
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] > cutoff })
		bm := column.GetBitmap(len(p.sortKey))
		defer column.PutBitmap(bm)
		bm.SetRange(0, end)
		plan := []groupby.Agg{
			groupby.Sum("l_quantity"), groupby.Sum("l_extendedprice"),
			groupby.Sum("l_discprice"), groupby.Sum("l_charge"), groupby.Count(),
		}
		var res groupby.Result
		if err := groupby.GroupBitmap(r.q1Spec(r.q1Keys(), plan, p.cols), bm, &res); err != nil {
			panic(err)
		}
		keys, aggs = res.Keys, res.Aggs
	}
	if len(keys) == 0 || len(keys[0]) == 0 {
		return nil
	}
	out := make([]Q1Row, 0, len(keys[0]))
	for g := range keys[0] {
		out = append(out, Q1Row{
			ReturnFlag: r.data.Flags.Decode(keys[0][g]),
			LineStatus: r.data.Status.Decode(keys[1][g]),
			SumQty:     aggs[0][g],
			SumBase:    aggs[1][g],
			SumDisc:    aggs[2][g],
			SumCharge:  aggs[3][g],
			Count:      aggs[4][g],
		})
	}
	return out
}

// q1Keys builds the composite grouping key of Q1 — (returnflag,
// linestatus), most significant first, with exact dictionary-code
// domains — matching the flag*2+status group enumeration of the oracle.
func (r *Runner) q1Keys() []groupby.Key {
	fLo, fHi := r.data.Lineitem.Column("l_returnflag").Bounds()
	sLo, sHi := r.data.Lineitem.Column("l_linestatus").Bounds()
	return []groupby.Key{{Lo: fLo, Hi: fHi}, {Lo: sLo, Hi: sHi}}
}

// q1Spec assembles the selection-vector spec of Q1 over the given
// column set (base slices, or a projection's reordered copies).
func (r *Runner) q1Spec(keys []groupby.Key, aggs []groupby.Agg, cols map[string][]int64) *groupby.Spec {
	keys[0].View = column.View{Base: cols["l_returnflag"]}
	keys[1].View = column.View{Base: cols["l_linestatus"]}
	return &groupby.Spec{
		Keys: keys,
		Aggs: aggs,
		AggViews: []column.View{
			{Base: cols["l_quantity"]}, {Base: cols["l_extendedprice"]},
			{Base: cols["l_discprice"]}, {Base: cols["l_charge"]}, {},
		},
		Threads: r.threads,
	}
}

// Q6 runs the forecasting revenue change query: sum(extprice * discount)
// over lines shipped in `year` with discount within ±1% of `discount`
// (basis points) and quantity < `quantity`. Revenue is returned in
// cents.
//
// Q6 is a three-predicate conjunction over l_shipdate, l_discount and
// l_quantity. Every Store mode asks it as one three-conjunct Sum of the
// derived per-row revenue, and the Store's planner picks the driving
// conjunct and how each residual applies. The pre-sorted projection
// binary-searches its shipdate window (the most selective conjunct in
// every variant) and filters discount, then quantity.
func (r *Runner) Q6(year int, discount, quantity int64) int64 {
	loDay, hiDay := YearDay(year), YearDay(year+1)
	dLo, dHi := discount-100, discount+101
	if r.store != nil {
		revenue, err := r.store.Query().
			Where("l_shipdate", loDay, hiDay).
			Where("l_discount", dLo, dHi).
			Where("l_quantity", math.MinInt64, quantity).
			Sum("l_revenue")
		if err != nil {
			panic(err)
		}
		return revenue
	}
	// Positions are projection positions, not base row ids; the discount
	// filter runs fused over the contiguous window, so no identity
	// position list is ever materialized.
	p := r.projection("l_shipdate")
	cols := p.cols
	start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
	end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
	disc := cols["l_discount"]
	sel := make(column.PosList, 0, (end-start)/4+1)
	for i := start; i < end; i++ {
		if v := disc[i]; v >= dLo && v < dHi {
			sel = append(sel, column.Pos(i))
		}
	}
	sel = column.ParallelFilterRows(cols["l_quantity"], sel, 0, quantity, r.threads)
	ext := cols["l_extendedprice"]
	var revenue int64
	for _, pos := range sel {
		revenue += ext[pos] * disc[pos] / 10000
	}
	return revenue
}

// Q12Row is one ship mode group of the shipping modes / order priority
// query.
type Q12Row struct {
	ShipMode  string
	HighCount int64 // orders with priority 1-URGENT or 2-HIGH
	LowCount  int64
}

// q12Lines collects the qualifying lineitems of Q12 — received in
// [loDay, hiDay), ship mode in {m1, m2}, commitdate < receiptdate,
// shipdate < commitdate — as aligned (orderkey, shipmode) arrays: the
// probe side of the Q12 join. A Store answers the date conditions in one
// query (the last two through the derived l_late flag); the ship modes
// are filtered in the loop that copies the result out.
func (r *Runner) q12Lines(m1, m2, loDay, hiDay int64) (lkeys, lmode []int64) {
	keep := func(mode, okey int64) {
		if mode == m1 || mode == m2 {
			lkeys = append(lkeys, okey)
			lmode = append(lmode, mode)
		}
	}
	if r.store != nil {
		cols := values(r.store.Query().Where("l_receiptdate", loDay, hiDay).Where("l_late", 1, 2),
			"l_shipmode", "l_orderkey")
		for i, mode := range cols[0] {
			keep(mode, cols[1][i])
		}
		return lkeys, lmode
	}
	p := r.projection("l_receiptdate")
	start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
	end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
	pm, pc, ps, po := p.cols["l_shipmode"], p.cols["l_commitdate"], p.cols["l_shipdate"], p.cols["l_orderkey"]
	pr := p.cols["l_receiptdate"]
	for i := start; i < end; i++ {
		if pc[i] < pr[i] && ps[i] < pc[i] {
			keep(pm[i], po[i])
		}
	}
	return lkeys, lmode
}

// Q12 runs the shipping-modes query: lines received in `year` with ship
// mode in {m1, m2}, commitdate < receiptdate and shipdate < commitdate,
// joined to ORDERS for the priority split, grouped by ship mode.
//
// It executes on the join subsystem (internal/join) in every mode: the
// qualifying lines come out of one Store query or the pre-sorted
// projection's window (q12Lines), join ORDERS on orderkey through the
// radix-partitioned hash join, and the matched pairs feed a fused
// grouped plan keyed by ship mode that sums the order's urgent/high
// flag — HighCount directly, LowCount as the remainder of the group
// count. The retained hand-rolled loops (Q12Oracle) are the
// differential oracle: both must return byte-identical rows.
func (r *Runner) Q12(m1, m2 int64, year int) []Q12Row {
	lkeys, lmode := r.q12Lines(m1, m2, YearDay(year), YearDay(year+1))

	pairs := join.GetPairs()
	defer join.PutPairs(pairs)
	join.Hash(join.Op{Kind: join.OpPairs},
		join.Input{Keys: r.ord["o_orderkey"], Rows: r.ordRows},
		join.Input{Keys: lkeys, Rows: identityRows(len(lkeys))},
		r.threads, pairs)

	mLo, mHi := r.data.Lineitem.Column("l_shipmode").Bounds()
	var res groupby.Result
	if err := join.Grouped(pairs,
		[]join.PairCol{{Side: join.Right, View: column.View{Base: lmode}}},
		[][2]int64{{mLo, mHi}},
		[]groupby.Agg{groupby.Sum("high"), groupby.Count()},
		[]join.PairCol{{Side: join.Left, View: column.View{Base: r.prioHi}}, {}},
		&res); err != nil {
		panic(err)
	}

	var out []Q12Row
	for _, m := range []int64{m1, m2} {
		for g := 0; g < res.Len(); g++ {
			if res.Keys[0][g] != m {
				continue
			}
			high := res.Aggs[0][g]
			out = append(out, Q12Row{
				ShipMode:  r.data.Modes.Decode(m),
				HighCount: high,
				LowCount:  res.Aggs[1][g] - high,
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShipMode < out[j].ShipMode })
	return out
}

// Q3Row is one result row of the shipping-priority query: an order's
// revenue over its qualifying lines.
type Q3Row struct {
	OrderKey     int64
	Revenue      int64 // cents, sum(l_extendedprice*(1-l_discount))
	OrderDate    int64
	ShipPriority int64
}

// q3Lines collects the lineitems shipped after `day` as aligned
// (orderkey, discounted price) arrays: the probe side of Q3's second
// join — one Store query, or the pre-sorted projection's tail window.
// The discounted price reuses the derived l_discprice column, whose
// fixed-point arithmetic matches the oracle exactly.
func (r *Runner) q3Lines(day int64) (lkeys, ldisc []int64) {
	if r.store != nil {
		cols := values(r.store.Query().Where("l_shipdate", day+1, math.MaxInt64), "l_orderkey", "l_discprice")
		return cols[0], cols[1]
	}
	p := r.projection("l_shipdate")
	start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] > day })
	lkeys = append(lkeys, p.cols["l_orderkey"][start:]...)
	ldisc = append(ldisc, p.cols["l_discprice"][start:]...)
	return lkeys, ldisc
}

// Q3 runs the shipping-priority query: customers of one market
// segment, their orders placed before `day`, and the revenue of each
// such order's lines shipped after `day`, grouped by (orderkey,
// orderdate, shippriority) and cut to the ten highest-revenue orders.
//
// It is a three-table plan on the join subsystem in every mode:
// CUSTOMER (filtered by segment) joins ORDERS (filtered by orderdate)
// on custkey, the surviving orders join LINEITEM (filtered by
// shipdate, through q3Lines) on orderkey, and the matched pairs feed a
// fused grouped plan summing the discounted price. The dimension scans
// are in-place — the big relation's access path is where the modes
// differ. Q3Oracle is the hand-rolled
// differential oracle; both must return byte-identical rows.
func (r *Runner) Q3(segment, day int64) []Q3Row {
	// Customer side: custkeys of the segment.
	var ckeys []int64
	cseg := r.cust["c_mktsegment"]
	ckey := r.cust["c_custkey"]
	for i, seg := range cseg {
		if seg == segment {
			ckeys = append(ckeys, ckey[i])
		}
	}
	// Orders side: custkey (join key), orderkey, orderdate and
	// shippriority of the orders placed before day.
	var oc, okeys, odates, oprios []int64
	ocust := r.ord["o_custkey"]
	okey := r.ord["o_orderkey"]
	odate := r.ord["o_orderdate"]
	oprio := r.ord["o_shippriority"]
	for i, d := range odate {
		if d < day {
			oc = append(oc, ocust[i])
			okeys = append(okeys, okey[i])
			odates = append(odates, d)
			oprios = append(oprios, oprio[i])
		}
	}

	// Join 1: customer ⋈ orders on custkey — the surviving orders.
	pairs := join.GetPairs()
	defer join.PutPairs(pairs)
	join.Hash(join.Op{Kind: join.OpPairs},
		join.Input{Keys: ckeys, Rows: identityRows(len(ckeys))},
		join.Input{Keys: oc, Rows: identityRows(len(oc))},
		r.threads, pairs)
	if pairs.Len() == 0 {
		return nil // no qualifying orders: skip the LINEITEM pass entirely
	}
	subKeys := make([]int64, 0, pairs.Len())
	subDates := make([]int64, 0, pairs.Len())
	subPrios := make([]int64, 0, pairs.Len())
	for _, oi := range pairs.Right {
		subKeys = append(subKeys, okeys[oi])
		subDates = append(subDates, odates[oi])
		subPrios = append(subPrios, oprios[oi])
	}

	// Join 2: surviving orders ⋈ lineitem on orderkey, grouped by the
	// order with the revenue summed from the lineitem side.
	lkeys, ldisc := r.q3Lines(day)
	pairs2 := join.GetPairs()
	defer join.PutPairs(pairs2)
	join.Hash(join.Op{Kind: join.OpPairs},
		join.Input{Keys: subKeys, Rows: identityRows(len(subKeys))},
		join.Input{Keys: lkeys, Rows: identityRows(len(lkeys))},
		r.threads, pairs2)

	kLo, kHi := column.Bounds(subKeys)
	dLo, dHi := column.Bounds(subDates)
	pLo, pHi := column.Bounds(subPrios)
	var res groupby.Result
	if err := join.Grouped(pairs2,
		[]join.PairCol{
			{Side: join.Left, View: column.View{Base: subKeys}},
			{Side: join.Left, View: column.View{Base: subDates}},
			{Side: join.Left, View: column.View{Base: subPrios}},
		},
		[][2]int64{{kLo, kHi}, {dLo, dHi}, {pLo, pHi}},
		[]groupby.Agg{groupby.Sum("l_discprice")},
		[]join.PairCol{{Side: join.Right, View: column.View{Base: ldisc}}},
		&res); err != nil {
		panic(err)
	}

	out := make([]Q3Row, 0, res.Len())
	for g := 0; g < res.Len(); g++ {
		out = append(out, Q3Row{
			OrderKey:     res.Keys[0][g],
			Revenue:      res.Aggs[0][g],
			OrderDate:    res.Keys[1][g],
			ShipPriority: res.Keys[2][g],
		})
	}
	return topQ3(out)
}

// topQ3 orders rows by revenue descending (orderkey ascending on
// ties — the deterministic cut both Q3 and its oracle share) and keeps
// the top ten.
func topQ3(rows []Q3Row) []Q3Row {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Revenue != rows[j].Revenue {
			return rows[i].Revenue > rows[j].Revenue
		}
		return rows[i].OrderKey < rows[j].OrderKey
	})
	if len(rows) > 10 {
		rows = rows[:10]
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

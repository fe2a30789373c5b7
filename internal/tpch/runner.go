package tpch

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/join"
	"holistic/internal/stats"
)

// Mode is one of the four execution strategies of Figure 14.
type Mode int

const (
	// ModeScan is plain MonetDB: full-column scans.
	ModeScan Mode = iota
	// ModePresorted is offline indexing: a copy of LINEITEM re-sorted on
	// the query's predicate attribute ("the perfect projection").
	ModePresorted
	// ModeCracking is sideways cracking: the predicate attribute is
	// cracked with the projected attributes attached as payload columns,
	// so qualifying tuples of every needed attribute sit in one
	// contiguous block (self-organizing tuple reconstruction, [29]).
	ModeCracking
	// ModeHolistic is ModeCracking plus the holistic daemon refining the
	// crackers in the background.
	ModeHolistic
)

// String names the mode as Figure 14's legend does.
func (m Mode) String() string {
	switch m {
	case ModeScan:
		return "MonetDB"
	case ModePresorted:
		return "Presorted MonetDB"
	case ModeCracking:
		return "Sideways Cracking"
	case ModeHolistic:
		return "Holistic Indexing"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// projection is a copy of the LINEITEM columns re-ordered by one sort
// attribute: the "column-store projection" offline indexing builds.
type projection struct {
	sortKey []int64
	cols    map[string][]int64
}

// Runner executes the three TPC-H queries under one mode.
type Runner struct {
	data *Data
	mode Mode

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

	mu       sync.Mutex
	proj     map[string]*projection
	crackers map[string]*sideways
	threads  int

	reg    *stats.Registry
	daemon *holistic.Daemon

	// PrepareTime records how long Prepare spent building projections
	// (the pre-sorting cost Figure 14 reports separately: "8 sec").
	PrepareTime time.Duration
}

// RunnerConfig tunes the holistic mode.
type RunnerConfig struct {
	// Interval, Refinements, Seed configure the daemon (holistic mode).
	Interval    time.Duration
	Refinements int
	Seed        int64
	// L1Values is the optimal piece size for the daemon.
	L1Values int
	// Contexts is the load accountant budget (holistic mode).
	Contexts int
}

// NewRunner builds a runner. For ModeHolistic the daemon starts
// immediately; for ModePresorted call Prepare before querying (or the
// first query pays it lazily).
func NewRunner(data *Data, mode Mode, cfg RunnerConfig) *Runner {
	r := &Runner{
		data:     data,
		mode:     mode,
		li:       make(map[string][]int64),
		ord:      make(map[string][]int64),
		cust:     make(map[string][]int64),
		proj:     make(map[string]*projection),
		crackers: make(map[string]*sideways),
		threads:  cfg.Contexts,
	}
	if r.threads < 1 {
		r.threads = 1
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
	// r.li like base attributes: pre-sorted projections reorder them and
	// the shipdate sideways cracker drags them as payloads.
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
	if mode == ModeHolistic {
		if cfg.Contexts < 1 {
			cfg.Contexts = 2
		}
		if cfg.Interval <= 0 {
			cfg.Interval = 10 * time.Millisecond
		}
		r.reg = stats.NewRegistry(cfg.L1Values, cfg.Seed)
		r.daemon = holistic.New(r.reg, cpu.NewLoadAccountant(cfg.Contexts), holistic.Config{
			Interval:    cfg.Interval,
			Refinements: cfg.Refinements,
			Seed:        cfg.Seed,
		})
		r.daemon.Start()
	}
	return r
}

// Close stops the daemon (holistic mode).
func (r *Runner) Close() {
	if r.daemon != nil {
		r.daemon.Stop()
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

// sidewaysPayloads maps each predicate attribute to the LINEITEM
// attributes the three queries project through it: the payload set of its
// sideways cracker (self-organizing tuple reconstruction, [29]).
var sidewaysPayloads = map[string][]string{
	"l_shipdate":    {"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_discprice", "l_charge", "l_orderkey"},
	"l_receiptdate": {"l_shipmode", "l_commitdate", "l_shipdate", "l_orderkey"},
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

// sideways is one sideways cracker column and, in holistic mode, its
// node in the daemon's index space.
type sideways struct {
	col   *cracking.Column
	entry *stats.Entry
}

// cracker returns (building if needed) the sideways cracker on attr; in
// holistic mode a new one joins the daemon's index space. The crackers
// are read-only — LINEITEM takes no updates — so they carry no pending
// queue.
func (r *Runner) cracker(attr string) *sideways {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sw, ok := r.crackers[attr]; ok {
		return sw
	}
	names := sidewaysPayloads[attr]
	cols := make([][]int64, len(names))
	for i, n := range names {
		cols[i] = r.li[n]
	}
	sw := &sideways{col: cracking.NewSideways(attr, r.li[attr], names, cols, cracking.Config{Seed: int64(len(r.crackers))})}
	if r.reg != nil {
		sw.entry = r.reg.Add(attr, sw.col, nil, false)
	}
	r.crackers[attr] = sw
	return sw
}

// Cracker exposes the cracker column for telemetry (nil before first use).
func (r *Runner) Cracker(attr string) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sw := r.crackers[attr]; sw != nil {
		return sw.col
	}
	return nil
}

// selectPayloads streams the qualifying tuples (select values plus the
// attr's payload columns, position-aligned) under the cracking modes,
// counting the caller as a busy context while it cracks, and recording
// statistics in holistic mode.
func (r *Runner) selectPayloads(attr string, lo, hi int64, fn func(vals []int64, payloads [][]int64)) {
	sw := r.cracker(attr)
	cpu.Acquire(1)
	defer cpu.Release(1)
	rg := sw.col.SelectPayloads(lo, hi, fn)
	if sw.entry != nil {
		sw.entry.RecordAccess(rg.ExactHit())
	}
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
// linestatus. It executes on the grouped-aggregation subsystem
// (internal/groupby): one fused multi-aggregate plan — four sums and a
// count in a single pass — over the composite (returnflag, linestatus)
// key, with the qualifying rows delivered by the mode's access path: a
// parallel bitmap scan (MonetDB), the pre-sorted projection's
// contiguous window (presorted), or the sideways cracker's payload
// segments streamed straight into a slice-fed accumulator (cracking and
// holistic). The retained hand-rolled loops (Q1Oracle) serve as the
// differential oracle: both must return byte-identical rows.
func (r *Runner) Q1(delta int64) []Q1Row {
	cutoff := Q1CutoffBase - delta // shipdate <= cutoff, i.e. < cutoff+1
	keys := r.q1Keys()
	aggs := []groupby.Agg{
		groupby.Sum("l_quantity"), groupby.Sum("l_extendedprice"),
		groupby.Sum("l_discprice"), groupby.Sum("l_charge"), groupby.Count(),
	}
	var res groupby.Result
	switch r.mode {
	case ModeScan:
		bm := column.GetBitmap(0)
		defer column.PutBitmap(bm)
		column.ParallelScanRangeBitmap(r.li["l_shipdate"], math.MinInt64, cutoff+1, bm, r.threads)
		spec := r.q1Spec(keys, aggs, r.li)
		if err := groupby.GroupBitmap(spec, bm, &res); err != nil {
			panic(err)
		}
	case ModePresorted:
		p := r.projection("l_shipdate")
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] > cutoff })
		bm := column.GetBitmap(len(p.sortKey))
		defer column.PutBitmap(bm)
		bm.SetRange(0, end)
		spec := r.q1Spec(keys, aggs, p.cols)
		if err := groupby.GroupBitmap(spec, bm, &res); err != nil {
			panic(err)
		}
	case ModeCracking, ModeHolistic:
		acc, err := groupby.NewAcc(keys, aggs)
		if err != nil {
			panic(err)
		}
		// Payload order: qty, ext, disc, tax, flag, status, discprice,
		// charge (sidewaysPayloads); the fused plan reads five of them.
		r.selectPayloads("l_shipdate", 0, cutoff+1, func(_ []int64, pl [][]int64) {
			acc.Segment([][]int64{pl[4], pl[5]}, [][]int64{pl[0], pl[1], pl[6], pl[7], nil})
		})
		if err := acc.Finish(&res); err != nil {
			panic(err)
		}
	}
	out := make([]Q1Row, 0, res.Len())
	for g := 0; g < res.Len(); g++ {
		out = append(out, Q1Row{
			ReturnFlag: r.data.Flags.Decode(res.Keys[0][g]),
			LineStatus: r.data.Status.Decode(res.Keys[1][g]),
			SumQty:     res.Aggs[0][g],
			SumBase:    res.Aggs[1][g],
			SumDisc:    res.Aggs[2][g],
			SumCharge:  res.Aggs[3][g],
			Count:      res.Aggs[4][g],
		})
	}
	if len(out) == 0 {
		return nil
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
// l_quantity. Its shipdate conjunct (one year of seven) is the most
// selective of the three in every variant, so every mode drives by it
// and filters discount, then quantity: the scan filters the base
// columns, the pre-sorted projection binary-searches its shipdate window,
// and the cracking modes read the shipdate sideways cracker — whose
// payloads carry quantity, extendedprice and discount — as Q1 and Q3 do,
// filtering inside the segment loop. Under the holistic mode that one
// cracker is the only index Q6 adds to the daemon's space.
func (r *Runner) Q6(year int, discount, quantity int64) int64 {
	loDay, hiDay := YearDay(year), YearDay(year+1)
	dLo, dHi := discount-100, discount+101
	var revenue int64
	var cols map[string][]int64
	var sel column.PosList
	switch r.mode {
	case ModeCracking, ModeHolistic:
		// Shipdate sideways payload order: qty, ext, disc, ...
		r.selectPayloads("l_shipdate", loDay, hiDay, func(_ []int64, pl [][]int64) {
			qty, ext, disc := pl[0], pl[1], pl[2]
			for i, d := range disc {
				if d >= dLo && d < dHi && qty[i] < quantity {
					revenue += ext[i] * d / 10000
				}
			}
		})
		return revenue
	case ModePresorted:
		// Positions are projection positions, not base row ids; the
		// discount filter runs fused over the contiguous window, so no
		// identity position list is ever materialized.
		p := r.projection("l_shipdate")
		cols = p.cols
		start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
		disc := cols["l_discount"]
		sel = make(column.PosList, 0, (end-start)/4+1)
		for i := start; i < end; i++ {
			if v := disc[i]; v >= dLo && v < dHi {
				sel = append(sel, column.Pos(i))
			}
		}
	default:
		cols = r.li
		sel = column.ParallelScanRange(cols["l_shipdate"], loDay, hiDay, r.threads)
		sel = column.ParallelFilterRows(cols["l_discount"], sel, dLo, dHi, r.threads)
	}
	sel = column.ParallelFilterRows(cols["l_quantity"], sel, 0, quantity, r.threads)
	ext, disc := cols["l_extendedprice"], cols["l_discount"]
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
// shipdate < commitdate — through the mode's access path, as aligned
// (orderkey, shipmode) arrays: the probe side of the Q12 join.
func (r *Runner) q12Lines(m1, m2, loDay, hiDay int64) (lkeys, lmode []int64) {
	keep := func(mode, commit, ship, receipt, okey int64) {
		if (mode == m1 || mode == m2) && commit < receipt && ship < commit {
			lkeys = append(lkeys, okey)
			lmode = append(lmode, mode)
		}
	}
	switch r.mode {
	case ModeScan:
		receipt := r.li["l_receiptdate"]
		commit := r.li["l_commitdate"]
		ship := r.li["l_shipdate"]
		mode := r.li["l_shipmode"]
		okey := r.li["l_orderkey"]
		for i, rc := range receipt {
			if rc >= loDay && rc < hiDay {
				keep(mode[i], commit[i], ship[i], rc, okey[i])
			}
		}
	case ModePresorted:
		p := r.projection("l_receiptdate")
		start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
		pm, pc, ps, po := p.cols["l_shipmode"], p.cols["l_commitdate"], p.cols["l_shipdate"], p.cols["l_orderkey"]
		pr := p.cols["l_receiptdate"]
		for i := start; i < end; i++ {
			keep(pm[i], pc[i], ps[i], pr[i], po[i])
		}
	case ModeCracking, ModeHolistic:
		r.selectPayloads("l_receiptdate", loDay, hiDay, func(vals []int64, pl [][]int64) {
			pm, pc, ps, po := pl[0], pl[1], pl[2], pl[3]
			for i := range pm {
				keep(pm[i], pc[i], ps[i], vals[i], po[i])
			}
		})
	}
	return lkeys, lmode
}

// Q12 runs the shipping-modes query: lines received in `year` with ship
// mode in {m1, m2}, commitdate < receiptdate and shipdate < commitdate,
// joined to ORDERS for the priority split, grouped by ship mode.
//
// It executes on the join subsystem (internal/join) in every mode: the
// qualifying lines stream out of the mode's access path (scan,
// pre-sorted projection window, or the receiptdate sideways cracker's
// payload segments), join ORDERS on orderkey through the
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

// q3Lines collects the lineitems shipped after `day` through the
// mode's access path, as aligned (orderkey, discounted price) arrays:
// the probe side of Q3's second join. The discounted price reuses the
// derived l_discprice column, whose fixed-point arithmetic matches the
// oracle exactly.
func (r *Runner) q3Lines(day int64) (lkeys, ldisc []int64) {
	switch r.mode {
	case ModeScan:
		ship := r.li["l_shipdate"]
		okey := r.li["l_orderkey"]
		dp := r.li["l_discprice"]
		for i, s := range ship {
			if s > day {
				lkeys = append(lkeys, okey[i])
				ldisc = append(ldisc, dp[i])
			}
		}
	case ModePresorted:
		p := r.projection("l_shipdate")
		start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] > day })
		po, pd := p.cols["l_orderkey"], p.cols["l_discprice"]
		lkeys = append(lkeys, po[start:]...)
		ldisc = append(ldisc, pd[start:]...)
	case ModeCracking, ModeHolistic:
		// Shipdate sideways payload order: qty, ext, disc, tax, flag,
		// status, discprice, charge, orderkey.
		r.selectPayloads("l_shipdate", day+1, math.MaxInt64, func(_ []int64, pl [][]int64) {
			lkeys = append(lkeys, pl[8]...)
			ldisc = append(ldisc, pl[6]...)
		})
	}
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
// shipdate through the mode's access path) on orderkey, and the
// matched pairs feed a fused grouped plan summing the discounted
// price. The dimension scans are in-place — the big relation's access
// path is where the modes differ. Q3Oracle is the hand-rolled
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

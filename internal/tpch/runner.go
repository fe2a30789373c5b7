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
	crackers map[string]*cracking.Column
	// rowCrackers are plain rowid-carrying crackers (no payloads), one
	// per conjunct attribute of Q6: the access paths of the conjunctive
	// select→probe→fetch pipeline. Keyed by attribute; registered with
	// the daemon under "<attr>.rows" to coexist with the sideways
	// crackers.
	rowCrackers map[string]*cracking.Column
	threads     int

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
		data:        data,
		mode:        mode,
		li:          make(map[string][]int64),
		ord:         make(map[string][]int64),
		cust:        make(map[string][]int64),
		proj:        make(map[string]*projection),
		crackers:    make(map[string]*cracking.Column),
		rowCrackers: make(map[string]*cracking.Column),
		threads:     cfg.Contexts,
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

// cracker returns (building if needed) the sideways cracker column on
// attr; in holistic mode new crackers join the daemon's index space.
func (r *Runner) cracker(attr string) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.crackers[attr]; ok {
		return c
	}
	names := sidewaysPayloads[attr]
	cols := make([][]int64, len(names))
	for i, n := range names {
		cols[i] = r.li[n]
	}
	c := cracking.NewSideways(attr, r.li[attr], names, cols, cracking.Config{Seed: int64(len(r.crackers))})
	r.crackers[attr] = c
	if r.reg != nil {
		r.reg.Add(attr, c, false)
	}
	return c
}

// Cracker exposes the cracker column for telemetry (nil before first use).
func (r *Runner) Cracker(attr string) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crackers[attr]
}

// selectPayloads streams the qualifying tuples (select values plus the
// attr's payload columns, position-aligned) under the cracking modes,
// counting the caller as a busy context while it cracks, and recording
// statistics in holistic mode.
func (r *Runner) selectPayloads(attr string, lo, hi int64, fn func(vals []int64, payloads [][]int64)) {
	c := r.cracker(attr)
	cpu.Acquire(1)
	defer cpu.Release(1)
	rg := c.SelectPayloads(lo, hi, fn)
	if r.reg != nil {
		r.reg.RecordAccess(attr, rg.ExactHit())
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

// conjPred is one range conjunct over a LINEITEM attribute: lo <= attr
// < hi.
type conjPred struct {
	attr   string
	lo, hi int64
}

// planConj orders the conjuncts most selective first under a uniform
// estimate over each attribute's observed domain.
func (r *Runner) planConj(preds []conjPred) []conjPred {
	ests := make([]float64, len(preds))
	for i, p := range preds {
		dLo, dHi := r.data.Lineitem.Column(p.attr).Bounds()
		ests[i] = column.UniformEstimate(1, dLo, dHi, p.lo, p.hi)
	}
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ests[idx[a]] < ests[idx[b]] })
	out := make([]conjPred, len(preds))
	for i, j := range idx {
		out[i] = preds[j]
	}
	return out
}

// rowCracker returns (building if needed) the plain rowid-carrying
// cracker on attr used by the conjunctive Q6 pipeline; under the
// holistic mode it joins the daemon's index space as "<attr>.rows".
func (r *Runner) rowCracker(attr string) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.rowCrackers[attr]; ok {
		return c
	}
	c := cracking.New(attr, r.li[attr], cracking.Config{WithRows: true, Seed: int64(len(r.rowCrackers))})
	r.rowCrackers[attr] = c
	if r.reg != nil {
		r.reg.Add(attr+".rows", c, false)
	}
	return c
}

// RowCracker exposes the conjunctive cracker for telemetry (nil before
// first use).
func (r *Runner) RowCracker(attr string) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rowCrackers[attr]
}

// Q6 runs the forecasting revenue change query: sum(extprice * discount)
// over lines shipped in `year` with discount within ±1% of `discount`
// (basis points) and quantity < `quantity`. Revenue is returned in
// cents.
//
// Q6 is a real three-predicate conjunction over l_shipdate, l_discount
// and l_quantity, evaluated with the select→probe→fetch pipeline of the
// query subsystem: the planner orders the conjuncts by estimated
// selectivity, the most selective one runs through the mode's access
// path (scan / sorted projection / rowid cracker), the remaining
// conjuncts refine the candidate positions by positional probes, and
// the revenue attributes are fetched late. Under the holistic mode
// every conjunct attribute is admitted to the daemon's index space, so
// background refinement spreads across all three columns.
func (r *Runner) Q6(year int, discount, quantity int64) int64 {
	loDay, hiDay := YearDay(year), YearDay(year+1)
	dLo, dHi := discount-100, discount+100
	preds := []conjPred{
		{"l_shipdate", loDay, hiDay},
		{"l_discount", dLo, dHi + 1},
		{"l_quantity", 0, quantity},
	}
	plan := r.planConj(preds)

	var sel column.PosList
	residual := plan[1:]
	var ext, disc []int64
	switch r.mode {
	case ModeScan:
		d := plan[0]
		sel = column.ParallelScanRange(r.li[d.attr], d.lo, d.hi, r.threads)
		ext, disc = r.li["l_extendedprice"], r.li["l_discount"]
	case ModePresorted:
		// The pre-sorted projection is ordered on l_shipdate, so that
		// conjunct drives via binary search regardless of plan order;
		// the others probe the projection's aligned columns. Positions
		// are projection positions, not base row ids. The first probe
		// runs fused over the contiguous window, so no identity
		// position list is ever materialized.
		p := r.projection("l_shipdate")
		start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
		var rest []conjPred
		for _, q := range plan {
			if q.attr != "l_shipdate" {
				rest = append(rest, q)
			}
		}
		residual = nil
		if len(rest) == 0 {
			sel = make(column.PosList, 0, end-start)
			for i := start; i < end; i++ {
				sel = append(sel, column.Pos(i))
			}
		} else {
			first := rest[0]
			vals := p.cols[first.attr]
			sel = make(column.PosList, 0, (end-start)/4+1)
			for i := start; i < end; i++ {
				if v := vals[i]; v >= first.lo && v < first.hi {
					sel = append(sel, column.Pos(i))
				}
			}
			for _, q := range rest[1:] {
				sel = column.ParallelFilterRows(p.cols[q.attr], sel, q.lo, q.hi, r.threads)
			}
		}
		ext, disc = p.cols["l_extendedprice"], p.cols["l_discount"]
	case ModeCracking, ModeHolistic:
		cpu.Acquire(1)
		defer cpu.Release(1)
		c := r.rowCracker(plan[0].attr)
		rg, rows := c.SelectRows(plan[0].lo, plan[0].hi)
		if r.reg != nil {
			r.reg.RecordAccess(plan[0].attr+".rows", rg.ExactHit())
			// Every other conjunct joins the index space too, so the
			// daemon's refinement spreads across all touched columns.
			for _, q := range residual {
				r.rowCracker(q.attr)
				r.reg.RecordAccess(q.attr+".rows", false)
			}
		}
		sel = rows
		ext, disc = r.li["l_extendedprice"], r.li["l_discount"]
	}
	for _, q := range residual {
		sel = column.ParallelFilterRows(r.li[q.attr], sel, q.lo, q.hi, r.threads)
	}

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

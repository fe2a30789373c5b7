package tpch

import "sort"

// The hand-rolled query loops the subsystem-based Q1, Q12 and Q3 are
// checked against: test references, not part of the runner.

// q1acc accumulates one group.
type q1acc struct{ qty, base, disc, charge, count int64 }

func (a *q1acc) add(qty, ext, disc, tax int64) {
	a.qty += qty
	a.base += ext
	dp := ext * (10000 - disc) / 10000
	a.disc += dp
	a.charge += dp * (10000 + tax) / 10000
	a.count++
}

// Q1Oracle is the original hand-rolled Q1: per-mode tight loops over a
// fixed 6-slot group array. Retained as the differential oracle for the
// grouped-aggregation subsystem — TestQ1MatchesOracleAllModes asserts
// Q1 and Q1Oracle return byte-identical rows in every mode.
func (r *Runner) Q1Oracle(delta int64) []Q1Row {
	cutoff := Q1CutoffBase - delta // shipdate <= cutoff, i.e. < cutoff+1
	var groups [6]q1acc

	ship := r.li["l_shipdate"]
	qty := r.li["l_quantity"]
	ext := r.li["l_extendedprice"]
	disc := r.li["l_discount"]
	tax := r.li["l_tax"]
	flag := r.li["l_returnflag"]
	status := r.li["l_linestatus"]

	switch r.mode {
	case ModeScan:
		for i, s := range ship {
			if s <= cutoff {
				g := flag[i]*2 + status[i]
				groups[g].add(qty[i], ext[i], disc[i], tax[i])
			}
		}
	case ModePresorted:
		p := r.projection("l_shipdate")
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] > cutoff })
		pq, pe, pd, pt := p.cols["l_quantity"], p.cols["l_extendedprice"], p.cols["l_discount"], p.cols["l_tax"]
		pf, ps := p.cols["l_returnflag"], p.cols["l_linestatus"]
		for i := 0; i < end; i++ {
			g := pf[i]*2 + ps[i]
			groups[g].add(pq[i], pe[i], pd[i], pt[i])
		}
	case ModeCracking, ModeHolistic:
		// Sideways payloads arrive position-aligned with the cracked
		// values: qty, ext, disc, tax, flag, status.
		r.selectPayloads("l_shipdate", 0, cutoff+1, func(_ []int64, pl [][]int64) {
			pq, pe, pd, pt, pf, ps := pl[0], pl[1], pl[2], pl[3], pl[4], pl[5]
			for i := range pq {
				g := pf[i]*2 + ps[i]
				groups[g].add(pq[i], pe[i], pd[i], pt[i])
			}
		})
	}

	var out []Q1Row
	for g, acc := range groups {
		if acc.count == 0 {
			continue
		}
		out = append(out, Q1Row{
			ReturnFlag: r.data.Flags.Decode(int64(g / 2)),
			LineStatus: r.data.Status.Decode(int64(g % 2)),
			SumQty:     acc.qty,
			SumBase:    acc.base,
			SumDisc:    acc.disc,
			SumCharge:  acc.charge,
			Count:      acc.count,
		})
	}
	return out
}

// Q12Oracle is the original hand-rolled Q12: per-mode tight loops over
// a positional priority lookup. Retained as the differential oracle
// for the join-subsystem rewrite — TestQ12MatchesOracleAllModes
// asserts Q12 and Q12Oracle return byte-identical rows in every mode.
func (r *Runner) Q12Oracle(m1, m2 int64, year int) []Q12Row {
	loDay, hiDay := YearDay(year), YearDay(year+1)

	receipt := r.li["l_receiptdate"]
	commit := r.li["l_commitdate"]
	ship := r.li["l_shipdate"]
	mode := r.li["l_shipmode"]
	okey := r.li["l_orderkey"]

	counts := map[int64]*Q12Row{}
	account := func(m, orderkey int64) {
		row, ok := counts[m]
		if !ok {
			row = &Q12Row{ShipMode: r.data.Modes.Decode(m)}
			counts[m] = row
		}
		if r.prio[orderkey] <= 1 {
			row.HighCount++
		} else {
			row.LowCount++
		}
	}

	switch r.mode {
	case ModeScan:
		for i, rc := range receipt {
			if rc >= loDay && rc < hiDay && (mode[i] == m1 || mode[i] == m2) &&
				commit[i] < rc && ship[i] < commit[i] {
				account(mode[i], okey[i])
			}
		}
	case ModePresorted:
		p := r.projection("l_receiptdate")
		start := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= loDay })
		end := sort.Search(len(p.sortKey), func(i int) bool { return p.sortKey[i] >= hiDay })
		pm, pc, ps, po := p.cols["l_shipmode"], p.cols["l_commitdate"], p.cols["l_shipdate"], p.cols["l_orderkey"]
		pr := p.cols["l_receiptdate"]
		for i := start; i < end; i++ {
			if (pm[i] == m1 || pm[i] == m2) && pc[i] < pr[i] && ps[i] < pc[i] {
				account(pm[i], po[i])
			}
		}
	case ModeCracking, ModeHolistic:
		r.selectPayloads("l_receiptdate", loDay, hiDay, func(vals []int64, pl [][]int64) {
			pm, pc, ps, po := pl[0], pl[1], pl[2], pl[3]
			for i := range pm {
				if (pm[i] == m1 || pm[i] == m2) && pc[i] < vals[i] && ps[i] < pc[i] {
					account(pm[i], po[i])
				}
			}
		})
	}

	var out []Q12Row
	for _, m := range []int64{m1, m2} {
		if row, ok := counts[m]; ok {
			out = append(out, *row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ShipMode < out[j].ShipMode })
	return out
}

// Q3Oracle is the hand-rolled Q3: a segment lookup table, a qualifying-
// order filter, and one scan of LINEITEM accumulating revenue per
// order. Mode-independent (the data is shared), it is the differential
// oracle TestQ3MatchesOracleAllModes checks every mode's Q3 against.
func (r *Runner) Q3Oracle(segment, day int64) []Q3Row {
	inSeg := make([]bool, len(r.cust["c_custkey"]))
	for i, seg := range r.cust["c_mktsegment"] {
		if seg == segment {
			inSeg[r.cust["c_custkey"][i]] = true
		}
	}
	// o_orderkey is dense 0..N-1, so qualifying orders index directly.
	odate := r.ord["o_orderdate"]
	qual := make([]bool, len(odate))
	for i, d := range odate {
		if d < day && inSeg[r.ord["o_custkey"][i]] {
			qual[r.ord["o_orderkey"][i]] = true
		}
	}
	ship := r.li["l_shipdate"]
	okey := r.li["l_orderkey"]
	dp := r.li["l_discprice"]
	rev := make(map[int64]int64)
	for i, s := range ship {
		if s > day && qual[okey[i]] {
			rev[okey[i]] += dp[i]
		}
	}
	oprio := r.ord["o_shippriority"]
	out := make([]Q3Row, 0, len(rev))
	for k, v := range rev {
		out = append(out, Q3Row{OrderKey: k, Revenue: v, OrderDate: odate[k], ShipPriority: oprio[k]})
	}
	return topQ3(out)
}

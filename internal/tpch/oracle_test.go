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

// Q1Oracle is the hand-rolled Q1: one scan of the base columns into a
// fixed 6-slot group array. TestQ1MatchesOracleAllModes asserts Q1
// returns byte-identical rows in every mode.
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
	for i, s := range ship {
		if s <= cutoff {
			g := flag[i]*2 + status[i]
			groups[g].add(qty[i], ext[i], disc[i], tax[i])
		}
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

// Q6Oracle is the hand-rolled Q6: one scan of the base columns summing
// each qualifying line's revenue. TestQ6MatchesOracleAllModes asserts Q6
// returns the same sum in every mode.
func (r *Runner) Q6Oracle(year int, discount, quantity int64) int64 {
	ship := r.li["l_shipdate"]
	qty := r.li["l_quantity"]
	ext := r.li["l_extendedprice"]
	disc := r.li["l_discount"]
	var revenue int64
	for i, s := range ship {
		if s >= YearDay(year) && s < YearDay(year+1) &&
			disc[i] >= discount-100 && disc[i] <= discount+100 && qty[i] < quantity {
			revenue += ext[i] * disc[i] / 10000
		}
	}
	return revenue
}

// Q12Oracle is the hand-rolled Q12: one scan of the base columns with
// a positional priority lookup. TestQ12MatchesOracleAllModes asserts
// Q12 returns byte-identical rows in every mode.
func (r *Runner) Q12Oracle(m1, m2 int64, year int) []Q12Row {
	loDay, hiDay := YearDay(year), YearDay(year+1)

	receipt := r.li["l_receiptdate"]
	commit := r.li["l_commitdate"]
	ship := r.li["l_shipdate"]
	mode := r.li["l_shipmode"]
	okey := r.li["l_orderkey"]

	counts := map[int64]*Q12Row{}
	for i, rc := range receipt {
		if rc < loDay || rc >= hiDay || (mode[i] != m1 && mode[i] != m2) ||
			commit[i] >= rc || ship[i] >= commit[i] {
			continue
		}
		row, ok := counts[mode[i]]
		if !ok {
			row = &Q12Row{ShipMode: r.data.Modes.Decode(mode[i])}
			counts[mode[i]] = row
		}
		if r.prio[okey[i]] <= 1 {
			row.HighCount++
		} else {
			row.LowCount++
		}
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
// order. TestQ3MatchesOracleAllModes checks every mode's Q3 against it.
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

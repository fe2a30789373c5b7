// Package tpch provides the TPC-H substrate of the evaluation (Section
// 5.6): a deterministic, scale-parameterized generator for the LINEITEM
// and ORDERS columns used by queries Q1, Q6, Q12 and Q3, a qgen-style
// random-variant generator, and implementations of the queries over each
// of the paper's four execution modes. Plain scans, cracking and holistic
// indexing run LINEITEM through a holistic.Store in its scan, adaptive
// and holistic modes; pre-sorted projections are the runner's own.
//
// Representation follows fixed-width column-store practice: dates are day
// numbers since 1992-01-01, money is cents, discount/tax are basis
// points, and the low-cardinality string attributes (return flag, line
// status, ship mode, order priority) are dictionary codes. The generator
// reproduces the TPC-H shapes that matter to these queries — the date
// domains and the shipdate/commitdate/receiptdate orderings — at any
// scale (DESIGN.md §3 records the dbgen substitution).
package tpch

import (
	"math/rand"

	"holistic/internal/column"
	"holistic/internal/engine"
)

// Day numbers are relative to 1992-01-01.
const (
	// DaysPerYear approximates the calendar for date arithmetic; TPC-H
	// predicates are year-granular so this is exact enough for the
	// selectivities that matter.
	DaysPerYear = 365
	// MaxOrderDay is 1998-08-02, the last order date dbgen generates.
	MaxOrderDay = 6*DaysPerYear + 214
	// Q1CutoffBase is 1998-12-01, the anchor of Q1's shipdate predicate.
	Q1CutoffBase = 6*DaysPerYear + 335
)

// YearDay returns the day number of January 1st of a TPC-H year
// (1992..1998).
func YearDay(year int) int64 { return int64(year-1992) * DaysPerYear }

// ShipModes are the seven TPC-H ship modes (Q12 picks pairs of codes).
var ShipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

// Priorities are the five TPC-H order priorities; Q12 counts lines whose
// order is urgent or high (codes 0 and 1) against the rest.
var Priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// Segments are the five TPC-H market segments (Q3 filters customers by
// one of them).
var Segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// Data is the generated database: the two tables plus the dictionaries
// that decode their string-typed columns.
type Data struct {
	Lineitem *engine.Table
	Orders   *engine.Table
	Customer *engine.Table

	Flags     *column.Dict // l_returnflag: R, A, N
	Status    *column.Dict // l_linestatus: O, F
	Modes     *column.Dict // l_shipmode
	Prios     *column.Dict // o_orderpriority
	Segs      *column.Dict // c_mktsegment
	LinesPerO float64
}

// Generate builds a database with the given number of orders (TPC-H SF 1
// is 1.5M orders; the evaluation scales this down). Each order has 1-7
// lineitems as in dbgen.
func Generate(orders int, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	d := &Data{
		Flags:  column.NewDict(),
		Status: column.NewDict(),
		Modes:  column.NewDict(),
		Prios:  column.NewDict(),
		Segs:   column.NewDict(),
	}
	// Fix dictionary codes in canonical order.
	for _, s := range []string{"R", "A", "N"} {
		d.Flags.Encode(s)
	}
	for _, s := range []string{"O", "F"} {
		d.Status.Encode(s)
	}
	for _, s := range ShipModes {
		d.Modes.Encode(s)
	}
	for _, s := range Priorities {
		d.Prios.Encode(s)
	}
	for _, s := range Segments {
		d.Segs.Encode(s)
	}

	// Customers: dbgen's SF 1 has 150k customers to 1.5M orders, so one
	// customer per ten orders, dense custkeys, one market segment each.
	customers := orders / 10
	if customers < 1 {
		customers = 1
	}
	cCustkey := make([]int64, customers)
	cSegment := make([]int64, customers)
	for c := range cCustkey {
		cCustkey[c] = int64(c)
		cSegment[c] = int64(rng.Intn(len(Segments)))
	}

	oOrderkey := make([]int64, orders)
	oOrderdate := make([]int64, orders)
	oPriority := make([]int64, orders)
	oCustkey := make([]int64, orders)
	oShippriority := make([]int64, orders) // constant 0, as dbgen generates it

	var (
		lOrderkey, lQuantity, lExtended, lDiscount, lTax []int64
		lReturnflag, lLinestatus, lShipmode              []int64
		lShipdate, lCommitdate, lReceiptdate             []int64
	)

	// currentDay for linestatus: dbgen uses 1995-06-17 as the boundary
	// between F (shipped long ago) and O (open) lines.
	currentDay := YearDay(1995) + 167

	for o := 0; o < orders; o++ {
		oOrderkey[o] = int64(o)
		orderDay := rng.Int63n(MaxOrderDay + 1)
		oOrderdate[o] = orderDay
		oPriority[o] = int64(rng.Intn(len(Priorities)))
		oCustkey[o] = int64(rng.Intn(customers))

		lines := 1 + rng.Intn(7)
		for l := 0; l < lines; l++ {
			ship := orderDay + 1 + rng.Int63n(121)
			commit := orderDay + 30 + rng.Int63n(61)
			receipt := ship + 1 + rng.Int63n(30)
			qty := 1 + rng.Int63n(50)
			price := (90000 + rng.Int63n(10_000_000)) / 100 // cents, ~$900..$100k
			disc := rng.Int63n(11) * 100                    // basis points 0..1000 (0..10%)
			tax := rng.Int63n(9) * 100                      // 0..800 bp

			var flag int64
			if receipt <= currentDay {
				// Delivered: R or A with equal probability (dbgen).
				flag = rng.Int63n(2)
			} else {
				flag = 2 // N
			}
			var status int64 // O=0, F=1
			if ship > currentDay {
				status = 0
			} else {
				status = 1
			}

			lOrderkey = append(lOrderkey, int64(o))
			lQuantity = append(lQuantity, qty)
			lExtended = append(lExtended, qty*price)
			lDiscount = append(lDiscount, disc)
			lTax = append(lTax, tax)
			lReturnflag = append(lReturnflag, flag)
			lLinestatus = append(lLinestatus, status)
			lShipmode = append(lShipmode, int64(rng.Intn(len(ShipModes))))
			lShipdate = append(lShipdate, ship)
			lCommitdate = append(lCommitdate, commit)
			lReceiptdate = append(lReceiptdate, receipt)
		}
	}

	ordersT := engine.NewTable("orders")
	ordersT.MustAddColumn(column.New("o_orderkey", oOrderkey))
	ordersT.MustAddColumn(column.New("o_orderdate", oOrderdate))
	ordersT.MustAddColumn(column.New("o_orderpriority", oPriority))
	ordersT.MustAddColumn(column.New("o_custkey", oCustkey))
	ordersT.MustAddColumn(column.New("o_shippriority", oShippriority))

	custT := engine.NewTable("customer")
	custT.MustAddColumn(column.New("c_custkey", cCustkey))
	custT.MustAddColumn(column.New("c_mktsegment", cSegment))

	li := engine.NewTable("lineitem")
	li.MustAddColumn(column.New("l_orderkey", lOrderkey))
	li.MustAddColumn(column.New("l_quantity", lQuantity))
	li.MustAddColumn(column.New("l_extendedprice", lExtended))
	li.MustAddColumn(column.New("l_discount", lDiscount))
	li.MustAddColumn(column.New("l_tax", lTax))
	li.MustAddColumn(column.New("l_returnflag", lReturnflag))
	li.MustAddColumn(column.New("l_linestatus", lLinestatus))
	li.MustAddColumn(column.New("l_shipmode", lShipmode))
	li.MustAddColumn(column.New("l_shipdate", lShipdate))
	li.MustAddColumn(column.New("l_commitdate", lCommitdate))
	li.MustAddColumn(column.New("l_receiptdate", lReceiptdate))

	d.Lineitem = li
	d.Orders = ordersT
	d.Customer = custT
	if orders > 0 {
		d.LinesPerO = float64(li.Rows()) / float64(orders)
	}
	return d
}

// QueryVariant is one random instantiation of a TPC-H query template, as
// produced by the benchmark's qgen.
type QueryVariant struct {
	// Q1: DELTA days subtracted from 1998-12-01.
	Q1Delta int64
	// Q6: year (1993..1997), discount in basis points (200..900),
	// quantity threshold (24 or 25).
	Q6Year     int
	Q6Discount int64
	Q6Quantity int64
	// Q12: two distinct shipmode codes and a year (1993..1997).
	Q12Mode1, Q12Mode2 int64
	Q12Year            int
	// Q3: a market-segment code and a cutoff day (orders before it,
	// shipments after it — qgen draws dates in March 1995).
	Q3Segment int64
	Q3Day     int64
}

// Variants generates n qgen-style random parameter sets.
func Variants(n int, seed int64) []QueryVariant {
	rng := rand.New(rand.NewSource(seed))
	out := make([]QueryVariant, n)
	for i := range out {
		m1 := int64(rng.Intn(len(ShipModes)))
		m2 := int64(rng.Intn(len(ShipModes) - 1))
		if m2 >= m1 {
			m2++
		}
		out[i] = QueryVariant{
			Q1Delta:    60 + rng.Int63n(61),
			Q6Year:     1993 + rng.Intn(5),
			Q6Discount: 200 + rng.Int63n(8)*100,
			Q6Quantity: 24 + rng.Int63n(2),
			Q12Mode1:   m1,
			Q12Mode2:   m2,
			Q12Year:    1993 + rng.Intn(5),
			Q3Segment:  int64(rng.Intn(len(Segments))),
			Q3Day:      YearDay(1995) + 59 + rng.Int63n(31), // March 1995
		}
	}
	return out
}

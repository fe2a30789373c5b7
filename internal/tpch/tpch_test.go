package tpch

import (
	"reflect"
	"testing"
	"time"
)

func testData(t *testing.T) *Data {
	t.Helper()
	return Generate(2000, 42)
}

func allRunners(t *testing.T, d *Data) []*Runner {
	t.Helper()
	rs := []*Runner{
		NewRunner(d, ModeScan, RunnerConfig{}),
		NewRunner(d, ModePresorted, RunnerConfig{}),
		NewRunner(d, ModeCracking, RunnerConfig{}),
		NewRunner(d, ModeHolistic, RunnerConfig{
			Interval: time.Millisecond, Refinements: 8, Seed: 1, L1Values: 512,
		}),
	}
	rs[1].Prepare("l_shipdate", "l_receiptdate")
	return rs
}

func TestGenerateShape(t *testing.T) {
	d := testData(t)
	if d.Orders.Rows() != 2000 {
		t.Fatalf("orders rows = %d, want 2000", d.Orders.Rows())
	}
	lines := d.Lineitem.Rows()
	if lines < 2000 || lines > 7*2000 {
		t.Fatalf("lineitem rows = %d outside [2000, 14000]", lines)
	}
	if d.LinesPerO < 3 || d.LinesPerO > 5 {
		t.Errorf("lines per order = %f, expected ~4", d.LinesPerO)
	}
	// Date orderings the queries rely on.
	ship := d.Lineitem.Column("l_shipdate").Values()
	receipt := d.Lineitem.Column("l_receiptdate").Values()
	okey := d.Lineitem.Column("l_orderkey").Values()
	odate := d.Orders.Column("o_orderdate").Values()
	for i := range ship {
		if receipt[i] <= ship[i] {
			t.Fatalf("row %d: receiptdate %d <= shipdate %d", i, receipt[i], ship[i])
		}
		if ship[i] <= odate[okey[i]] {
			t.Fatalf("row %d: shipdate %d <= orderdate %d", i, ship[i], odate[okey[i]])
		}
	}
	// Dictionaries decode canonical values.
	if d.Flags.Decode(0) != "R" || d.Status.Decode(0) != "O" {
		t.Error("dictionary codes not canonical")
	}
	if d.Modes.Card() != 7 || d.Prios.Card() != 5 {
		t.Errorf("dict cards = %d/%d, want 7/5", d.Modes.Card(), d.Prios.Card())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(500, 7)
	b := Generate(500, 7)
	av := a.Lineitem.Column("l_shipdate").Values()
	bv := b.Lineitem.Column("l_shipdate").Values()
	if len(av) != len(bv) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("values differ across identical seeds")
		}
	}
}

func TestQ1AllModesAgree(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	for _, v := range Variants(5, 3) {
		want := rs[0].Q1(v.Q1Delta)
		if len(want) == 0 {
			t.Fatal("scan Q1 returned no groups")
		}
		for _, r := range rs[1:] {
			got := r.Q1(v.Q1Delta)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v Q1(delta=%d) = %+v, want %+v", r.Mode(), v.Q1Delta, got, want)
			}
		}
	}
}

// TestQ1MatchesOracleAllModes is the differential test of the grouped-
// aggregation rewrite: under every execution mode, the subsystem-based
// Q1 must return byte-identical rows to the retained hand-rolled
// oracle, across deltas that cover empty, partial and full selections.
func TestQ1MatchesOracleAllModes(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	deltas := []int64{-1000, 60, 90, 120, 100000}
	for _, v := range Variants(5, 3) {
		deltas = append(deltas, v.Q1Delta)
	}
	for _, r := range rs {
		for _, delta := range deltas {
			want := r.Q1Oracle(delta)
			got := r.Q1(delta)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Q1(%d) = %+v, oracle %+v", r.Mode(), delta, got, want)
			}
		}
	}
}

func TestQ6AllModesAgree(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	nonzero := false
	for _, v := range Variants(8, 4) {
		want := rs[0].Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity)
		if want > 0 {
			nonzero = true
		}
		for _, r := range rs[1:] {
			if got := r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity); got != want {
				t.Fatalf("%v Q6(%d,%d,%d) = %d, want %d",
					r.Mode(), v.Q6Year, v.Q6Discount, v.Q6Quantity, got, want)
			}
		}
	}
	if !nonzero {
		t.Error("every Q6 variant returned zero revenue — generator selectivities broken")
	}
}

func TestQ12AllModesAgree(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	nonzero := false
	for _, v := range Variants(8, 5) {
		want := rs[0].Q12(v.Q12Mode1, v.Q12Mode2, v.Q12Year)
		if len(want) > 0 {
			nonzero = true
		}
		for _, r := range rs[1:] {
			got := r.Q12(v.Q12Mode1, v.Q12Mode2, v.Q12Year)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v Q12(%d,%d,%d) = %+v, want %+v",
					r.Mode(), v.Q12Mode1, v.Q12Mode2, v.Q12Year, got, want)
			}
		}
	}
	if !nonzero {
		t.Error("every Q12 variant returned no groups")
	}
}

// TestQ12MatchesOracleAllModes is the differential test of the join-
// subsystem rewrite: under every execution mode, Q12 must return
// byte-identical rows to the retained hand-rolled oracle.
func TestQ12MatchesOracleAllModes(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	for _, r := range rs {
		for _, v := range Variants(8, 5) {
			want := r.Q12Oracle(v.Q12Mode1, v.Q12Mode2, v.Q12Year)
			got := r.Q12(v.Q12Mode1, v.Q12Mode2, v.Q12Year)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Q12(%d,%d,%d) = %+v, oracle %+v",
					r.Mode(), v.Q12Mode1, v.Q12Mode2, v.Q12Year, got, want)
			}
		}
		// A year with no qualifying lines must match the oracle's empty
		// result too.
		if got, want := r.Q12(0, 1, 2100), r.Q12Oracle(0, 1, 2100); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: empty Q12 = %+v, oracle %+v", r.Mode(), got, want)
		}
	}
}

// TestQ3MatchesOracleAllModes checks the three-table join query —
// customer ⋈ orders ⋈ lineitem with group-by and top-k — against the
// hand-rolled oracle in every mode.
func TestQ3MatchesOracleAllModes(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	nonzero := false
	for _, r := range rs {
		for _, v := range Variants(6, 8) {
			want := r.Q3Oracle(v.Q3Segment, v.Q3Day)
			got := r.Q3(v.Q3Segment, v.Q3Day)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Q3(%d,%d) = %+v, oracle %+v", r.Mode(), v.Q3Segment, v.Q3Day, got, want)
			}
			if len(got) > 0 {
				nonzero = true
			}
			for i := 1; i < len(got); i++ {
				if got[i].Revenue > got[i-1].Revenue {
					t.Fatalf("%v: Q3 rows not revenue-descending", r.Mode())
				}
			}
			if len(got) > 10 {
				t.Fatalf("%v: Q3 returned %d rows, top-k is 10", r.Mode(), len(got))
			}
		}
		// Degenerate cutoffs: no orders qualify / no lines qualify.
		if got := r.Q3(0, 0); got != nil {
			t.Fatalf("%v: Q3 before any order = %+v, want nil", r.Mode(), got)
		}
		if got, want := r.Q3(1, 100000), r.Q3Oracle(1, 100000); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: late-cutoff Q3 = %+v, oracle %+v", r.Mode(), got, want)
		}
	}
	if !nonzero {
		t.Error("every Q3 variant returned no rows — generator selectivities broken")
	}
}

func TestQ3AllModesAgree(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	for _, v := range Variants(4, 9) {
		want := rs[0].Q3(v.Q3Segment, v.Q3Day)
		for _, r := range rs[1:] {
			got := r.Q3(v.Q3Segment, v.Q3Day)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v Q3(%d,%d) = %+v, want %+v", r.Mode(), v.Q3Segment, v.Q3Day, got, want)
			}
		}
	}
}

func TestQ1Totals(t *testing.T) {
	d := testData(t)
	r := NewRunner(d, ModeScan, RunnerConfig{})
	// With delta=-1000 the cutoff lies beyond every shipdate: all rows
	// qualify and per-group counts must sum to the table cardinality.
	rows := r.Q1(-1000)
	var total int64
	for _, g := range rows {
		total += g.Count
		if g.SumBase < g.SumDisc {
			t.Errorf("group %s/%s: base %d < discounted %d", g.ReturnFlag, g.LineStatus, g.SumBase, g.SumDisc)
		}
		if g.SumCharge < g.SumDisc {
			t.Errorf("group %s/%s: charge below discounted price", g.ReturnFlag, g.LineStatus)
		}
	}
	if total != int64(d.Lineitem.Rows()) {
		t.Fatalf("Q1 total count = %d, want %d", total, d.Lineitem.Rows())
	}
}

func TestPrepareOnlyPresorted(t *testing.T) {
	d := testData(t)
	r := NewRunner(d, ModeScan, RunnerConfig{})
	r.Prepare("l_shipdate")
	if r.PrepareTime != 0 {
		t.Error("Prepare ran for a non-presorted mode")
	}
	rp := NewRunner(d, ModePresorted, RunnerConfig{})
	rp.Prepare("l_shipdate")
	if rp.PrepareTime <= 0 {
		t.Error("Prepare recorded no cost for presorted mode")
	}
}

func TestHolisticRunnerRefinesInBackground(t *testing.T) {
	d := Generate(5000, 9)
	r := NewRunner(d, ModeHolistic, RunnerConfig{
		Interval: time.Millisecond, Refinements: 16, Seed: 2, L1Values: 128,
	})
	defer r.Close()
	r.Q6(1994, 500, 25) // creates the shipdate sideways cracker
	c := r.Cracker("l_shipdate")
	if c == nil {
		t.Fatal("no cracker after Q6")
	}
	deadline := time.After(2 * time.Second)
	for c.Pieces() < 10 {
		select {
		case <-deadline:
			t.Fatalf("daemon refined only %d pieces", c.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Queries remain correct while refinement continues.
	scan := NewRunner(d, ModeScan, RunnerConfig{})
	for _, v := range Variants(5, 6) {
		if got, want := r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity), scan.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity); got != want {
			t.Fatalf("Q6 diverged under refinement: %d vs %d", got, want)
		}
	}
}

func TestVariantsWellFormed(t *testing.T) {
	for _, v := range Variants(100, 8) {
		if v.Q1Delta < 60 || v.Q1Delta > 120 {
			t.Fatalf("Q1Delta = %d", v.Q1Delta)
		}
		if v.Q6Year < 1993 || v.Q6Year > 1997 {
			t.Fatalf("Q6Year = %d", v.Q6Year)
		}
		if v.Q6Discount < 200 || v.Q6Discount > 900 {
			t.Fatalf("Q6Discount = %d", v.Q6Discount)
		}
		if v.Q6Quantity != 24 && v.Q6Quantity != 25 {
			t.Fatalf("Q6Quantity = %d", v.Q6Quantity)
		}
		if v.Q12Mode1 == v.Q12Mode2 {
			t.Fatal("Q12 modes equal")
		}
		if v.Q12Mode1 < 0 || v.Q12Mode1 > 6 || v.Q12Mode2 < 0 || v.Q12Mode2 > 6 {
			t.Fatalf("Q12 modes out of range: %d, %d", v.Q12Mode1, v.Q12Mode2)
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeScan: "MonetDB", ModePresorted: "Presorted MonetDB",
		ModeCracking: "Sideways Cracking", ModeHolistic: "Holistic Indexing",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %s", int(m), m.String())
		}
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

func TestSidewaysCrackerGrowsWithVariants(t *testing.T) {
	d := Generate(3000, 11)
	r := NewRunner(d, ModeCracking, RunnerConfig{})
	defer r.Close()
	if r.Cracker("l_shipdate") != nil {
		t.Fatal("cracker exists before any query")
	}
	prev := 0
	for _, v := range Variants(10, 12) {
		r.Q1(v.Q1Delta)
		c := r.Cracker("l_shipdate")
		if c == nil {
			t.Fatal("no sideways cracker after Q1")
		}
		if c.Pieces() < prev {
			t.Fatalf("pieces shrank: %d -> %d", prev, c.Pieces())
		}
		prev = c.Pieces()
	}
	if prev < 3 {
		t.Fatalf("cracker barely refined: %d pieces after 10 variants", prev)
	}
	names := r.Cracker("l_shipdate").PayloadNames()
	if len(names) != len(sidewaysPayloads["l_shipdate"]) {
		t.Fatalf("payload names = %v", names)
	}
}

// TestConjunctiveQ6Crackers: under the cracking modes Q6 drives by the
// shipdate sideways cracker, which grows with variants, and builds no
// other index; under the holistic mode it admits l_shipdate alone to the
// index space.
func TestConjunctiveQ6Crackers(t *testing.T) {
	d := Generate(3000, 11)
	r := NewRunner(d, ModeCracking, RunnerConfig{})
	defer r.Close()
	prev := 0
	for _, v := range Variants(10, 12) {
		r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity)
		c := r.Cracker("l_shipdate")
		if c == nil {
			t.Fatal("no shipdate sideways cracker after Q6")
		}
		if c.Pieces() < prev {
			t.Fatalf("pieces shrank: %d -> %d", prev, c.Pieces())
		}
		prev = c.Pieces()
	}
	if prev < 3 {
		t.Fatalf("cracker barely refined: %d pieces after 10 variants", prev)
	}
	if r.Cracker("l_discount") != nil || r.Cracker("l_quantity") != nil {
		t.Fatal("Q6 built indexes for non-driving conjuncts")
	}

	h := NewRunner(d, ModeHolistic, RunnerConfig{Interval: time.Millisecond, Refinements: 4, Seed: 3, L1Values: 256})
	defer h.Close()
	h.Q6(1994, 500, 25)
	var names []string
	for _, e := range h.reg.Entries() {
		names = append(names, e.Name)
	}
	if len(names) != 1 || names[0] != "l_shipdate" || h.reg.Get("l_shipdate").Accesses() != 1 {
		t.Fatalf("holistic Q6 admitted %v, want [l_shipdate] accessed once", names)
	}
}

func TestQ6RevenueMatchesManualComputation(t *testing.T) {
	d := Generate(1000, 13)
	r := NewRunner(d, ModeScan, RunnerConfig{})
	ship := d.Lineitem.Column("l_shipdate").Values()
	qty := d.Lineitem.Column("l_quantity").Values()
	ext := d.Lineitem.Column("l_extendedprice").Values()
	disc := d.Lineitem.Column("l_discount").Values()
	year, dv, qv := 1994, int64(500), int64(25)
	var want int64
	for i := range ship {
		if ship[i] >= YearDay(year) && ship[i] < YearDay(year+1) &&
			disc[i] >= dv-100 && disc[i] <= dv+100 && qty[i] < qv {
			want += ext[i] * disc[i] / 10000
		}
	}
	if got := r.Q6(year, dv, qv); got != want {
		t.Fatalf("Q6 = %d, want %d", got, want)
	}
}

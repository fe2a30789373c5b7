package tpch

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"holistic"
)

// daemonConfig is a Store configuration whose daemon tunes every
// millisecond, with x refinements per worker and l1 values per optimal
// piece.
func daemonConfig(x int, seed int64, l1 int) holistic.Config {
	return holistic.Config{
		TuningInterval: time.Millisecond, RefinementsPerWorker: x, Seed: seed, L1CacheBytes: 8 * l1,
	}
}

func testData(t *testing.T) *Data {
	t.Helper()
	return Generate(2000, 42)
}

func allRunners(t *testing.T, d *Data) []*Runner {
	t.Helper()
	rs := []*Runner{
		NewRunner(d, ModeScan, holistic.Config{}),
		NewRunner(d, ModePresorted, holistic.Config{}),
		NewRunner(d, ModeCracking, holistic.Config{}),
		NewRunner(d, ModeHolistic, daemonConfig(8, 1, 512)),
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

// TestQ6MatchesOracleAllModes: under every execution mode Q6 returns
// the hand-rolled scan's revenue, across variants and a year no line
// ships in.
func TestQ6MatchesOracleAllModes(t *testing.T) {
	d := testData(t)
	rs := allRunners(t, d)
	defer func() {
		for _, r := range rs {
			r.Close()
		}
	}()
	for _, r := range rs {
		for _, v := range Variants(8, 4) {
			if got, want := r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity), r.Q6Oracle(v.Q6Year, v.Q6Discount, v.Q6Quantity); got != want {
				t.Fatalf("%v: Q6(%d,%d,%d) = %d, oracle %d", r.Mode(), v.Q6Year, v.Q6Discount, v.Q6Quantity, got, want)
			}
		}
		if got := r.Q6(2100, 500, 25); got != 0 {
			t.Fatalf("%v: Q6 of an empty year = %d, want 0", r.Mode(), got)
		}
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
	r := NewRunner(d, ModeScan, holistic.Config{})
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
	r := NewRunner(d, ModeScan, holistic.Config{})
	r.Prepare("l_shipdate")
	if r.PrepareTime != 0 {
		t.Error("Prepare ran for a non-presorted mode")
	}
	rp := NewRunner(d, ModePresorted, holistic.Config{})
	rp.Prepare("l_shipdate")
	if rp.PrepareTime <= 0 {
		t.Error("Prepare recorded no cost for presorted mode")
	}
}

// TestHolisticRunnerRefinesInBackground: after one Q6 the holistic
// runner's Store daemon keeps refining its crackers while no query runs,
// and queries stay correct while it does.
func TestHolisticRunnerRefinesInBackground(t *testing.T) {
	d := Generate(5000, 9)
	r := NewRunner(d, ModeHolistic, daemonConfig(16, 2, 128))
	defer r.Close()
	r.Q6(1994, 500, 25) // builds the conjuncts' crackers
	first := r.store.Stats().Pieces
	if first == 0 {
		t.Fatal("no cracker after Q6")
	}
	deadline := time.After(2 * time.Second)
	for st := r.store.Stats(); st.Refinements == 0 || st.Pieces < first+10; st = r.store.Stats() {
		select {
		case <-deadline:
			t.Fatalf("daemon refined %d times to %d pieces, from %d", st.Refinements, st.Pieces, first)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Queries remain correct while refinement continues.
	scan := NewRunner(d, ModeScan, holistic.Config{})
	defer scan.Close()
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

// TestModeString checks Figure 14's legend labels and the Store mode
// each runner runs: every mode but ModePresorted, which has no Store.
func TestModeString(t *testing.T) {
	d := Generate(200, 3)
	for m, want := range map[Mode]struct {
		label string
		store holistic.Mode
	}{
		ModeScan:      {"MonetDB", holistic.ModeScan},
		ModePresorted: {"Presorted MonetDB", -1},
		ModeCracking:  {"Cracking (row ids)", holistic.ModeAdaptive},
		ModeHolistic:  {"Holistic Indexing", holistic.ModeHolistic},
	} {
		if m.String() != want.label {
			t.Errorf("%d.String() = %s, want %s", int(m), m.String(), want.label)
		}
		r := NewRunner(d, m, holistic.Config{Mode: holistic.ModeCCGI})
		switch {
		case want.store < 0 && r.store != nil:
			t.Errorf("%v runs a %v store, want none", m, r.store.Stats().Mode)
		case want.store >= 0 && (r.store == nil || r.store.Stats().Mode != want.store):
			t.Errorf("%v does not run a %v store", m, want.store)
		}
		r.Close()
	}
	if Mode(9).String() != "Mode(9)" || Mode(-1).String() != "Mode(-1)" {
		t.Error("unknown mode string")
	}
}

// TestCrackerGrowsWithVariants: under the cracking mode Q1 cracks
// l_shipdate, its one conjunct, and nothing before the first query;
// the index only gains pieces as variants arrive.
func TestCrackerGrowsWithVariants(t *testing.T) {
	d := Generate(3000, 11)
	r := NewRunner(d, ModeCracking, holistic.Config{})
	defer r.Close()
	if r.store.Stats().Pieces != 0 {
		t.Fatal("cracker exists before any query")
	}
	prev := 0
	for _, v := range Variants(10, 12) {
		r.Q1(v.Q1Delta)
		pieces := r.store.Stats().Pieces
		if pieces < prev {
			t.Fatalf("pieces shrank: %d -> %d", prev, pieces)
		}
		prev = pieces
	}
	if prev < 3 {
		t.Fatalf("cracker barely refined: %d pieces after 10 variants", prev)
	}
	if builds := r.store.Metrics().Exec.CrackerBuilds; builds != 1 {
		t.Fatalf("Q1 built %d crackers, want 1 (l_shipdate)", builds)
	}
}

// TestConjunctiveQ6Crackers: under the cracking mode Q6's crackers grow
// with variants, and Q6 builds one for no attribute beyond its three
// conjuncts; under the holistic mode it admits those conjuncts, and
// only those, to the daemon's index space, l_shipdate among them.
func TestConjunctiveQ6Crackers(t *testing.T) {
	d := Generate(3000, 11)
	r := NewRunner(d, ModeCracking, holistic.Config{})
	defer r.Close()
	prev := 0
	for _, v := range Variants(10, 12) {
		r.Q6(v.Q6Year, v.Q6Discount, v.Q6Quantity)
		pieces := r.store.Stats().Pieces
		if pieces < prev {
			t.Fatalf("pieces shrank: %d -> %d", prev, pieces)
		}
		prev = pieces
	}
	if prev < 3 {
		t.Fatalf("crackers barely refined: %d pieces after 10 variants", prev)
	}
	if builds := r.store.Metrics().Exec.CrackerBuilds; builds < 1 || builds > 3 {
		t.Fatalf("Q6 built %d crackers, want 1 to 3 (its conjuncts)", builds)
	}

	h := NewRunner(d, ModeHolistic, daemonConfig(4, 3, 256))
	defer h.Close()
	h.Q6(1994, 500, 25)
	conjuncts := map[string]bool{"l_shipdate": true, "l_discount": true, "l_quantity": true}
	var names []string
	for _, ix := range h.store.Metrics().Daemon.Indexes {
		if !conjuncts[ix.Name] {
			t.Fatalf("holistic Q6 admitted %s", ix.Name)
		}
		names = append(names, ix.Name)
	}
	if len(names) == 0 || !slices.Contains(names, "l_shipdate") {
		t.Fatalf("holistic Q6 admitted %v, want l_shipdate among them", names)
	}
}

func TestQ6RevenueMatchesManualComputation(t *testing.T) {
	d := Generate(1000, 13)
	r := NewRunner(d, ModeScan, holistic.Config{})
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

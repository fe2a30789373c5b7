package cracking

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"holistic/internal/column"
)

func TestSelectRangeMatchesScan(t *testing.T) {
	base := randVals(20_000, 5, 10_000)
	c := New("a", base, Config{})
	rng := rand.New(rand.NewSource(99))
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(10_000)
		hi := lo + rng.Int63n(10_000-lo) + 1
		r := c.SelectRange(lo, hi)
		if got, want := r.Count(), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): Count = %d, want %d", q, lo, hi, got, want)
		}
		_, vals := selectValues(c, lo, hi)
		for _, v := range vals {
			if v < lo || v >= hi {
				t.Fatalf("query %d: materialized value %d outside [%d,%d)", q, v, lo, hi)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigKernelIsInert pins the one-kernel contract: Config.Kernel is
// kept for source compatibility only, so both of its values must crack a
// column into the same physical order.
func TestConfigKernelIsInert(t *testing.T) {
	base := randVals(20_000, 6, 10_000)
	a := New("a", base, Config{Kernel: KernelInPlace})
	b := New("a", base, Config{Kernel: KernelVectorized})
	rng := rand.New(rand.NewSource(98))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(10_000)
		hi := lo + rng.Int63n(10_000-lo) + 1
		ra, rb := a.SelectRange(lo, hi), b.SelectRange(lo, hi)
		if want := column.CountRange(base, lo, hi); ra.Count() != want || rb != ra {
			t.Fatalf("query %d [%d,%d): ranges %+v and %+v, want count %d", q, lo, hi, ra, rb, want)
		}
	}
	if !equalSlices(a.Snapshot(), b.Snapshot()) {
		t.Fatal("Config.Kernel changed the physical order")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRangeStochastic(t *testing.T) {
	base := randVals(50_000, 7, 1<<20)
	c := New("a", base, Config{Stochastic: true, Seed: 3})
	rng := rand.New(rand.NewSource(97))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		if got, want := c.SelectRange(lo, hi).Count(), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): Count = %d, want %d", q, lo, hi, got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The stochastic variant must have cracked more pieces than the 2 per
	// query the plain variant would: auxiliary cracks add boundaries.
	if c.Pieces() <= 100 {
		t.Errorf("stochastic cracking produced only %d pieces over 100 queries", c.Pieces())
	}
}

// fullDomainVals spreads n values over [MinInt64+5, MaxInt64-5], both
// ends present: a domain whose width does not fit an int64.
func fullDomainVals(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = min(max(int64(rng.Uint64()), math.MinInt64+5), math.MaxInt64-5)
	}
	vals[0], vals[n-1] = math.MinInt64+5, math.MaxInt64-5
	return vals
}

// TestStochasticCracksFullInt64Domain: over a domain wider than
// MaxInt64 the signed width of the first piece wrapped negative and the
// auxiliary crack was silently skipped — stochastic cracking ran as
// plain cracking. It must add its random boundaries here too, and
// answer right.
func TestStochasticCracksFullInt64Domain(t *testing.T) {
	base := fullDomainVals(1<<16, 13)
	c := New("a", base, Config{Stochastic: true, Seed: 3})
	rng := rand.New(rand.NewSource(31))
	const queries = 50
	for q := 0; q < queries; q++ {
		lo := int64(rng.Uint64())
		hi := lo + rng.Int63n(math.MaxInt64)
		if hi < lo {
			hi = math.MaxInt64
		}
		if got, want := c.SelectRange(lo, hi).Count(), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): Count = %d, want %d", q, lo, hi, got, want)
		}
		if q == 0 && c.Pieces() <= 3 {
			t.Fatalf("first query left %d pieces: no auxiliary crack on the whole-domain piece", c.Pieces())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Pieces() <= 2*queries {
		t.Errorf("stochastic cracking produced only %d pieces over %d queries", c.Pieces(), queries)
	}
}

// TestUniformInCoversAnySpan: every draw lies in [lo, hi] whatever the
// span's width, both ends of a tiny span come up, and a span that fits
// an int64 consumes the generator exactly as lo + Int63n(hi-lo+1).
func TestUniformInCoversAnySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sp := range [][2]int64{
		{0, 0}, {-3, 4}, {math.MinInt64, math.MinInt64 + 1}, {math.MaxInt64 - 1, math.MaxInt64},
		{-1, math.MaxInt64 - 2}, {-1, math.MaxInt64 - 1}, {-1, math.MaxInt64},
		{math.MinInt64 + 5, math.MaxInt64 - 5}, {math.MinInt64, math.MaxInt64},
	} {
		seen := map[int64]bool{}
		for i := 0; i < 200; i++ {
			v := UniformIn(rng, sp[0], sp[1])
			if v < sp[0] || v > sp[1] {
				t.Fatalf("UniformIn(%d, %d) = %d", sp[0], sp[1], v)
			}
			seen[v] = true
		}
		if uint64(sp[1])-uint64(sp[0]) == 1 && len(seen) != 2 {
			t.Errorf("UniformIn(%d, %d) drew only %v in 200 tries", sp[0], sp[1], seen)
		}
	}
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if got, want := UniformIn(a, -500, 1<<40), -500+b.Int63n(1<<40+501); got != want {
			t.Fatalf("draw %d: UniformIn = %d, Int63n form = %d", i, got, want)
		}
	}
}

func TestSelectRangeParallelKernel(t *testing.T) {
	base := randVals(200_000, 8, 1<<20)
	c := New("a", base, Config{ParallelWorkers: 4, MinParallelPiece: 1024})
	rng := rand.New(rand.NewSource(96))
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		if got, want := c.SelectRange(lo, hi).Count(), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): Count = %d, want %d", q, lo, hi, got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRangeExactHit(t *testing.T) {
	base := randVals(10_000, 9, 1000)
	c := New("a", base, Config{})
	r1 := c.SelectRange(100, 200)
	if r1.ExactHit() {
		t.Error("first query reported an exact hit on an uncracked column")
	}
	r2 := c.SelectRange(100, 200)
	if !r2.ExactHit() {
		t.Error("repeated query did not report an exact hit")
	}
	if r1.Start != r2.Start || r1.End != r2.End {
		t.Errorf("repeated query moved the range: %+v vs %+v", r1, r2)
	}
	// One-sided hit: lower bound exists, upper does not.
	r3 := c.SelectRange(100, 300)
	if !r3.ExactLo || r3.ExactHi {
		t.Errorf("one-sided hit misreported: %+v", r3)
	}
}

func TestSelectRangeEmptyAndInverted(t *testing.T) {
	base := randVals(1000, 10, 100)
	c := New("a", base, Config{})
	if r := c.SelectRange(50, 50); r.Count() != 0 {
		t.Errorf("empty range returned %d tuples", r.Count())
	}
	if r := c.SelectRange(60, 40); r.Count() != 0 {
		t.Errorf("inverted range returned %d tuples", r.Count())
	}
	if r := c.SelectRange(1000, 2000); r.Count() != 0 {
		t.Errorf("out-of-domain range returned %d tuples", r.Count())
	}
	if r := c.SelectRange(-100, 1000); r.Count() != 1000 {
		t.Errorf("whole-domain range returned %d tuples, want all", r.Count())
	}
}

func TestSelectRangeEmptyColumn(t *testing.T) {
	c := New("a", nil, Config{})
	if r := c.SelectRange(0, 10); r.Count() != 0 {
		t.Errorf("select on empty column returned %d", r.Count())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRangeDuplicateHeavy(t *testing.T) {
	// Every value is one of 3 distinct values: boundaries pile on the
	// same keys and many pieces are empty.
	base := make([]int64, 9999)
	for i := range base {
		base[i] = int64(i % 3)
	}
	c := New("a", base, Config{})
	for q := 0; q < 20; q++ {
		lo := int64(q % 4)
		hi := lo + int64(q%3) + 1
		if got, want := c.SelectRange(lo, hi).Count(), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("[%d,%d): Count = %d, want %d", lo, hi, got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrackAtBoundaries(t *testing.T) {
	base := []int64{5, 2, 8, 1, 9, 3}
	c := New("a", base, Config{})
	pos, exact := c.CrackAt(5)
	if exact {
		t.Error("first CrackAt reported exact")
	}
	if pos != 3 { // values 2,1,3 are < 5
		t.Errorf("CrackAt(5) pos = %d, want 3", pos)
	}
	pos2, exact2 := c.CrackAt(5)
	if !exact2 || pos2 != pos {
		t.Errorf("repeat CrackAt(5) = %d,%v; want %d,true", pos2, exact2, pos)
	}
}

// TestLookupRange: Probe reports a bracketed range only once both bounds
// are boundaries, and then the select's own count.
func TestLookupRange(t *testing.T) {
	base := randVals(1000, 11, 100)
	c := New("a", base, Config{})
	if _, work := c.Probe(10, 20); work == 0 {
		t.Error("Probe reported a bracketed range before any crack")
	}
	r := c.SelectRange(10, 20)
	if n, work := c.Probe(10, 20); work != 0 || n != r.Count() {
		t.Errorf("Probe(10, 20) = %d, work %d after the crack; want %d, no work", n, work, r.Count())
	}
}

// TestProbe checks the select-cost probe against the pieces the select
// partitions: none for boundaries, the enclosing piece for each other
// bound, twice when both bounds share it.
func TestProbe(t *testing.T) {
	base := randVals(1000, 11, 100)
	c := New("a", base, Config{})
	if n, work := c.Probe(30, 40); work != 2000 || n != 0 {
		t.Errorf("uncracked Probe(30, 40) = %d, work %d; want the whole column twice", n, work)
	}
	sel := c.SelectRange(10, 20)
	below, above := sel.Start, 1000-sel.End
	cases := []struct {
		lo, hi int64
		n      int
		work   int
	}{
		{10, 20, sel.Count(), 0},
		{10, 50, 0, above},
		{5, 20, 0, below},
		{5, 50, 0, below + above},
		{30, 40, 0, 2 * above},
		{12, 18, 0, 2 * sel.Count()},
		{20, 10, 0, 0},
	}
	for _, tc := range cases {
		if n, work := c.Probe(tc.lo, tc.hi); n != tc.n || work != tc.work {
			t.Errorf("Probe(%d, %d) = %d, work %d; want %d, work %d", tc.lo, tc.hi, n, work, tc.n, tc.work)
		}
	}
}

func TestMaterializeRowsLockstep(t *testing.T) {
	base := randVals(5000, 12, 500)
	c := New("a", base, Config{})
	r, rows := c.SelectRows(100, 300)
	if len(rows) != r.Count() {
		t.Fatalf("got %d rows for %d qualifying tuples", len(rows), r.Count())
	}
	for _, rowid := range rows {
		v := base[rowid]
		if v < 100 || v >= 300 {
			t.Fatalf("row %d has base value %d outside [100,300)", rowid, v)
		}
	}
	// All qualifying base rows must be present exactly once.
	seen := map[uint32]bool{}
	for _, rowid := range rows {
		if seen[rowid] {
			t.Fatalf("row %d returned twice", rowid)
		}
		seen[rowid] = true
	}
	if want := column.CountRange(base, 100, 300); len(rows) != want {
		t.Fatalf("row count %d, want %d", len(rows), want)
	}
}

func TestSelectSum(t *testing.T) {
	base := randVals(10_000, 13, 1000)
	c := New("a", base, Config{})
	_, sum := c.SelectSum(250, 750)
	if want := column.ParallelSumRange(base, 250, 750, 1); sum != want {
		t.Fatalf("SelectSum = %d, want %d", sum, want)
	}
}

// selectValues materializes a select through SelectSegments, checking
// that every segment reports the range the call returns.
func selectValues(c *Column, lo, hi int64) (Range, []int64) {
	var out []int64
	var seen Range
	r := c.SelectSegments(lo, hi, func(r Range, s Segment) {
		seen = r
		out = s.AppendValues(out)
	})
	if len(out) > 0 && seen != r {
		panic("SelectSegments handed its consumer a different range than it returned")
	}
	return r, out
}

func TestSelectSegmentsMatchesScan(t *testing.T) {
	base := randVals(10_000, 14, 1000)
	c := New("a", base, Config{})
	r, vals := selectValues(c, 100, 900)
	if want := column.CountRange(base, 100, 900); len(vals) != want || r.Count() != want {
		t.Fatalf("got %d values for range %+v, want %d", len(vals), r, want)
	}
	if !equalSlices(multiset(vals), multiset(column.FetchRows(base, column.ScanRange(base, 100, 900)))) {
		t.Fatal("SelectSegments multiset differs from scan")
	}
}

func TestTryRefineAt(t *testing.T) {
	base := randVals(10_000, 15, 1<<20)
	c := New("a", base, Config{})
	if out := c.TryRefineAt(1<<19, 64); out != RefineDone {
		t.Fatalf("TryRefineAt on fresh column = %v, want done", out)
	}
	if out := c.TryRefineAt(1<<19, 64); out != RefineExact {
		t.Fatalf("repeat TryRefineAt = %v, want exact", out)
	}
	if c.Pieces() != 2 {
		t.Fatalf("Pieces() = %d, want 2", c.Pieces())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTryRefineAtSmallPiece(t *testing.T) {
	base := randVals(100, 16, 1000)
	c := New("a", base, Config{})
	if out := c.TryRefineAt(500, 1000); out != RefineSmall {
		t.Fatalf("TryRefineAt on piece below minPiece = %v, want small", out)
	}
	if c.Pieces() != 1 {
		t.Fatalf("small refinement still cracked: %d pieces", c.Pieces())
	}
}

func TestRefineOutcomeString(t *testing.T) {
	names := map[RefineOutcome]string{
		RefineDone: "done", RefineExact: "exact", RefineBusy: "busy",
		RefineSmall: "small", RefineOutcome(42): "unknown",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

func TestPiecesGrowWithQueries(t *testing.T) {
	base := randVals(100_000, 17, 1<<30)
	c := New("a", base, Config{})
	prev := c.Pieces()
	if prev != 1 {
		t.Fatalf("fresh column has %d pieces, want 1", prev)
	}
	rng := rand.New(rand.NewSource(55))
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1 << 30)
		hi := lo + rng.Int63n(1<<30-lo) + 1
		c.SelectRange(lo, hi)
	}
	if c.Pieces() <= prev {
		t.Fatalf("pieces did not grow: %d", c.Pieces())
	}
	// Convergence: per-query touched data shrinks as pieces multiply.
	if avg := c.AvgPieceSize(); avg >= 100_000 {
		t.Fatalf("average piece size did not shrink: %f", avg)
	}
}

func TestQuickSelectMatchesScanAnyWorkload(t *testing.T) {
	type query struct {
		Lo, Hi uint16
	}
	check := func(seed int64, queries []query) bool {
		base := randVals(3000, seed, 1<<16)
		c := New("q", base, Config{})
		for _, q := range queries {
			lo, hi := int64(q.Lo), int64(q.Hi)
			if lo > hi {
				lo, hi = hi, lo
			}
			if c.SelectRange(lo, hi).Count() != column.CountRange(base, lo, hi) {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSnapshotIsPermutation(t *testing.T) {
	check := func(seed int64, bounds []uint16) bool {
		base := randVals(2000, seed, 1<<16)
		c := New("q", base, Config{})
		for _, b := range bounds {
			c.CrackAt(int64(b))
		}
		snap := c.Snapshot()
		if !equalSlices(multiset(base), multiset(snap)) {
			return false
		}
		rows := c.SnapshotRows()
		for i, r := range rows {
			if base[r] != snap[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDomain(t *testing.T) {
	c := New("a", []int64{5, -3, 12, 0}, Config{})
	lo, hi := c.Domain()
	if lo != -3 || hi != 12 {
		t.Errorf("Domain() = %d,%d; want -3,12", lo, hi)
	}
	empty := New("e", nil, Config{})
	lo, hi = empty.Domain()
	if lo != 0 || hi != 0 {
		t.Errorf("empty Domain() = %d,%d; want 0,0", lo, hi)
	}
}

func TestSizeBytes(t *testing.T) {
	c := New("a", make([]int64, 100), Config{})
	if got := c.SizeBytes(); got != 800 {
		t.Errorf("SizeBytes() = %d, want 800", got)
	}
	// Rowids that ride in the value's word cost nothing; an array does.
	cr := New("a", make([]int64, 100), Config{})
	if got := cr.SizeBytes(); got != 800 {
		t.Errorf("SizeBytes() of a packed column = %d, want 800", got)
	}
	// The insert that widens the column also grows it: the slack it
	// opens is held, so it is counted.
	cr.MergeInsert(math.MaxInt64, 100)
	if got, want := cr.SizeBytes(), int64(growthCap(100)*12); got != want {
		t.Errorf("SizeBytes() of a widened column = %d, want %d", got, want)
	}
}

// TestSeparated: a column is separated exactly when a boundary sits at
// each of lo+1 … hi; boundaries at lo, below it or beyond hi count for
// nothing, and a one-value column always is.
func TestSeparated(t *testing.T) {
	base := make([]int64, 4000)
	for i := range base {
		base[i] = int64(10 + i%5) // domain [10, 14]
	}
	c := New("a", base, Config{})
	if c.Separated() {
		t.Fatal("an uncracked 5-value column is separated")
	}
	// Five boundaries, as many as the domain has values, but only two of
	// them inside (10, 14].
	c.SelectRange(-100, 10)
	c.SelectRange(11, 500)
	c.SelectRange(12, 1000)
	if c.Pieces() < 6 || c.Separated() {
		t.Fatalf("%d pieces, separated = %v: boundaries outside the domain were counted", c.Pieces(), c.Separated())
	}
	c.SelectRange(13, 14)
	if !c.Separated() {
		t.Fatalf("boundaries at 11, 12, 13, 14 do not separate [10, 14]: pieces %v", c.PieceBounds())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if one := New("b", []int64{7, 7, 7}, Config{}); !one.Separated() {
		t.Fatal("a one-value column is not separated")
	}
	wide := New("c", []int64{math.MinInt64, 0, math.MaxInt64}, Config{})
	wide.SelectRange(-1, 1)
	if wide.Separated() {
		t.Fatal("three values across all of int64 are separated by two boundaries")
	}
}

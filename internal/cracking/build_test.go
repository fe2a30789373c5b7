package cracking

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// checkBuiltLikeSelect asserts the NewCracked contract: the column it
// returns is indistinguishable from New followed by SelectRange(lo, hi) —
// the same Range (now an exact hit), the same values in each of the three
// regions, the same domain, rowids in lockstep, invariants intact.
func checkBuiltLikeSelect(t *testing.T, base []int64, cfg Config, lo, hi int64) {
	t.Helper()
	want := New("a", base, cfg)
	wr := want.SelectRange(lo, hi)
	got := NewCracked("a", base, cfg, lo, hi)
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gr := got.SelectRange(lo, hi)
	if gr.Start != wr.Start || gr.End != wr.End {
		t.Fatalf("[%d,%d): NewCracked answers %+v, New+SelectRange %+v", lo, hi, gr, wr)
	}
	if lo < hi && !gr.ExactHit() {
		t.Fatalf("[%d,%d): select after NewCracked was not an exact hit: %+v", lo, hi, gr)
	}
	if !cfg.Stochastic && got.Pieces() != want.Pieces() {
		t.Fatalf("[%d,%d): %d pieces, New+SelectRange has %d", lo, hi, got.Pieces(), want.Pieces())
	}
	gv, wv := got.Snapshot(), want.Snapshot()
	for _, span := range [][2]int{{0, gr.Start}, {gr.Start, gr.End}, {gr.End, len(base)}} {
		if !equalSlices(multiset(gv[span[0]:span[1]]), multiset(wv[span[0]:span[1]])) {
			t.Fatalf("[%d,%d): positions %v hold different values", lo, hi, span)
		}
	}
	gLo, gHi := got.Domain()
	if wLo, wHi := want.Domain(); gLo != wLo || gHi != wHi {
		t.Fatalf("domain [%d,%d], want [%d,%d]", gLo, gHi, wLo, wHi)
	}
	rows := got.SnapshotRows()
	if len(rows) != len(base) {
		t.Fatalf("%d rowids for %d values", len(rows), len(base))
	}
	for i, r := range rows {
		if base[r] != gv[i] {
			t.Fatalf("rows[%d] = %d points at %d but the value is %d", i, r, base[r], gv[i])
		}
	}
}

// checkFirstTouchRows asserts that the rowids SelectRows and
// SelectRowsFunc return for the range NewCracked was built around are
// exactly the base rows whose values lie in it.
func checkFirstTouchRows(t *testing.T, base []int64, cfg Config, lo, hi int64) {
	t.Helper()
	var want []uint32
	for i, v := range base {
		if lo <= v && v < hi {
			want = append(want, uint32(i))
		}
	}
	c := NewCracked("a", base, cfg, lo, hi)
	r, got := c.SelectRows(lo, hi)
	if r.Count() != len(want) {
		t.Fatalf("[%d,%d): range holds %d values, base %d", lo, hi, r.Count(), len(want))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("[%d,%d): SelectRows returns %d rowids, scan %d, or different ones", lo, hi, len(got), len(want))
	}
	var streamed []uint32
	c.SelectRowsFunc(lo, hi, func(rows []uint32) { streamed = append(streamed, rows...) })
	slices.Sort(streamed)
	if !slices.Equal(streamed, want) {
		t.Fatalf("[%d,%d): SelectRowsFunc streams %d rowids, scan %d, or different ones", lo, hi, len(streamed), len(want))
	}
}

func TestNewCrackedMatchesNewPlusSelect(t *testing.T) {
	const domain = 1 << 20
	uniform := randVals(30_000, 31, domain)
	allEqual := make([]int64, 1000)
	for i := range allEqual {
		allEqual[i] = 5
	}
	wide := make([]int64, 5000)
	rng := rand.New(rand.NewSource(32))
	for i := range wide {
		wide[i] = int64(rng.Uint64())
		if i%5 == 0 {
			wide[i] = extremes[rng.Intn(len(extremes))]
		}
	}
	bases := map[string][]int64{"uniform": uniform, "all-equal": allEqual, "full-int64": wide, "empty": nil, "single": {42}}
	bounds := [][2]int64{
		{domain / 4, domain / 2},               // ordinary
		{5, 6},                                 // one value wide
		{-100, -50},                            // both below the domain
		{2 * domain, 3 * domain},               // both above
		{-100, 2 * domain},                     // around the domain
		{domain / 2, domain / 2},               // empty
		{domain / 2, domain / 4},               // inverted
		{math.MinInt64, domain / 2},            // lo is the sentinel key
		{domain / 2, math.MaxInt64},            // hi is the largest key
		{math.MinInt64, math.MaxInt64},         // everything but MaxInt64
		{math.MinInt64 + 1, math.MaxInt64 - 1}, // just inside the extremes
		{math.MaxInt64 - 1, math.MaxInt64},     // overflowing differences
		{math.MinInt64, math.MinInt64 + 1},     // only the smallest value
		{math.MaxInt64, math.MinInt64},         // inverted extremes
		{0, 1},
	}
	// "rows" builds like "plain" and then checks the answer late tuple
	// reconstruction reads: the rowids of the first touch's range.
	cfgs := map[string]Config{
		"plain":      {},
		"rows":       {},
		"stochastic": {Stochastic: true, Seed: 9},
		"parallel":   {ParallelWorkers: 3, MinParallelPiece: 512},
	}
	for bn, base := range bases {
		for cn, cfg := range cfgs {
			for _, b := range bounds {
				t.Run(fmt.Sprintf("%s/%s/[%d,%d)", bn, cn, b[0], b[1]), func(t *testing.T) {
					checkBuiltLikeSelect(t, base, cfg, b[0], b[1])
					if cn == "rows" {
						checkFirstTouchRows(t, base, cfg, b[0], b[1])
					}
				})
			}
		}
	}
}

func TestQuickNewCrackedMatchesNewPlusSelect(t *testing.T) {
	check := func(base []int64, lo, hi int64) bool {
		checkBuiltLikeSelect(t, base, Config{}, lo, hi)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNewCrackedThenWorkload runs an ordinary cracking workload on a
// column born cracked: later selects, refinements and ripple merges must
// not be able to tell.
func TestNewCrackedThenWorkload(t *testing.T) {
	base := randVals(50_000, 33, 1<<20)
	c := NewCracked("a", base, Config{}, 1<<18, 1<<19)
	ref := New("a", base, Config{})
	rng := rand.New(rand.NewSource(34))
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		if q%10 == 0 {
			v := rng.Int63n(1 << 20)
			c.MergeInsert(v, uint32(len(base)+q))
			ref.MergeInsert(v, uint32(len(base)+q))
		}
		c.TryRefineAt(rng.Int63n(1<<20), 64)
		if got, want := c.SelectRange(lo, hi).Count(), ref.SelectRange(lo, hi).Count(); got != want {
			t.Fatalf("query %d [%d,%d): Count = %d, want %d", q, lo, hi, got, want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzFirstTouch feeds the fused build arbitrary columns. shift narrows
// the values (an arithmetic shift of each by shift%64 bits), so inputs
// range from the whole of int64, which no window holds, through spans
// around 2^32, where one value decides the layout after the sample has
// guessed, to a handful of values that always pack; whichever layout the
// data gets, the column must equal New followed by SelectRange.
func FuzzFirstTouch(f *testing.F) {
	seed := make([]byte, 8*300)
	rand.New(rand.NewSource(2)).Read(seed)
	for _, shift := range []uint8{0, 30, 31, 32, 33, 50} {
		f.Add(seed, int64(-1<<20), int64(1<<20), shift)
	}
	f.Add(seed[:16], int64(math.MinInt64), int64(math.MaxInt64), uint8(31))
	f.Add([]byte{}, int64(0), int64(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, shift uint8) {
		base := make([]int64, len(data)/8)
		for i := range base {
			base[i] = int64(binary.LittleEndian.Uint64(data[8*i:])) >> (shift % 64)
		}
		checkBuiltLikeSelect(t, base, Config{}, lo, hi)
	})
}

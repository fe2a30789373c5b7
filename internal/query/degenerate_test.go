package query

import (
	"math"
	"slices"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/engine"
)

// degenerateColumns are the inputs the randomized differentials never
// draw: nothing, one value, one value many times, and the edges of the
// int64 domain (which the bitmap scan biases to unsigned).
func degenerateColumns() map[string][]int64 {
	dups := make([]int64, 3000)
	for i := range dups {
		dups[i] = 7
	}
	// A domain wider than MaxInt64 on a column big enough to refine: the
	// signed span of a random pivot draw wraps over it.
	wide := make([]int64, 3000)
	for i := range wide {
		switch i % 3 {
		case 0:
			wide[i] = math.MinInt64 + 5
		case 1:
			wide[i] = math.MaxInt64 - 5
		default:
			wide[i] = int64(i-1500) << 51
		}
	}
	return map[string][]int64{
		"empty":         {},
		"single":        {42},
		"duplicates":    dups,
		"extremes":      {math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 5, 5},
		"both-extremes": wide,
	}
}

// degenerateRanges are the bounds around a column's values that trip
// off-by-one and overflow mistakes.
func degenerateRanges(a []int64) [][2]int64 {
	rs := [][2]int64{
		{7, 7},   // lo == hi
		{8, 2},   // inverted
		{43, 42}, // inverted by one
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + 1},
		{math.MaxInt64 - 1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{100, 200}, // covers nothing in any of the columns
		{0, 43},
		{7, 8},
	}
	if len(a) > 0 {
		mn, mx := slices.Min(a), slices.Max(a)
		if mx < math.MaxInt64 {
			rs = append(rs, [2]int64{mn, mx + 1}) // covers everything
		}
	}
	return rs
}

// TestDegenerateInputsAllModes is the table-driven differential over
// what the randomized ones do not reach: seven modes × every terminal of
// the executor and the two-conjunct query forms × degenerate columns ×
// degenerate ranges, each checked against a brute-force loop.
func TestDegenerateInputsAllModes(t *testing.T) {
	for colName, a := range degenerateColumns() {
		// b is the second conjunct's attribute: row i holds i mod 3.
		b := make([]int64, len(a))
		for i := range b {
			b[i] = int64(i % 3)
		}
		tab := engine.NewTable("R")
		tab.MustAddColumn(column.New("a", a))
		tab.MustAddColumn(column.New("b", b))
		for mode, exec := range allModeExecutors(t, tab) {
			t.Run(colName+"/"+mode, func(t *testing.T) {
				defer exec.Close()
				r := New(tab, exec, 2)
				bm := column.NewBitmap(0)
				// Twice: the first pass builds and cracks, the second runs
				// over the refined paths (and, for online, past the epoch).
				for pass := 0; pass < 2; pass++ {
					for _, rg := range degenerateRanges(a) {
						checkDegenerate(t, r, exec, bm, a, b, rg[0], rg[1])
					}
				}
				if d := exec.Daemon(); d != nil && d.WorkerPanics() != 0 {
					t.Errorf("%d daemon worker panics, last: %s", d.WorkerPanics(), d.LastPanic())
				}
			})
		}
	}
}

func checkDegenerate(t *testing.T, r *Runner, exec *engine.Executor, bm *column.Bitmap, a, b []int64, lo, hi int64) {
	t.Helper()
	var rows, conjRows []uint32
	var sum, conjSum int64
	mn, mx := int64(0), int64(0)
	for i, v := range a {
		if v < lo || v >= hi {
			continue
		}
		if len(rows) == 0 || v < mn {
			mn = v
		}
		if len(rows) == 0 || v > mx {
			mx = v
		}
		rows = append(rows, uint32(i))
		sum += v
		if b[i] < 2 {
			conjRows = append(conjRows, uint32(i))
			conjSum += v
		}
	}

	if n, err := exec.Count("a", lo, hi); err != nil || n != len(rows) {
		t.Fatalf("Count[%d,%d) = %d, %v; want %d", lo, hi, n, err, len(rows))
	}
	if s, err := exec.Sum("a", lo, hi); err != nil || s != sum {
		t.Fatalf("Sum[%d,%d) = %d, %v; want %d", lo, hi, s, err, sum)
	}
	gmn, gmx, ok, err := exec.MinMax("a", lo, hi)
	if err != nil || ok != (len(rows) > 0) || (ok && (gmn != mn || gmx != mx)) {
		t.Fatalf("MinMax[%d,%d) = (%d,%d,%v), %v; want (%d,%d,%v)", lo, hi, gmn, gmx, ok, err, mn, mx, len(rows) > 0)
	}
	got, err := exec.SelectRows("a", lo, hi)
	slices.Sort(got)
	if err != nil || !slices.Equal(got, rows) {
		t.Fatalf("SelectRows[%d,%d) = %v, %v; want %v", lo, hi, got, err, rows)
	}
	if err := exec.SelectBitmap("a", lo, hi, bm); err != nil || bm.Len() != len(a) || !slices.Equal(bm.AppendPositions(nil), column.PosList(rows)) {
		t.Fatalf("SelectBitmap[%d,%d) = %v over %d positions, %v; want %v over %d", lo, hi, bm.AppendPositions(nil), bm.Len(), err, rows, len(a))
	}

	// The crossover picks the representation: a narrow range on a drives
	// a position list, a range covering a leaves b's two thirds to drive
	// a bitmap.
	preds := []Predicate{{Attr: "a", Lo: lo, Hi: hi}, {Attr: "b", Lo: 0, Hi: 2}}
	if n, err := r.Count(preds); err != nil || n != len(conjRows) {
		t.Fatalf("conjunctive Count[%d,%d) = %d, %v; want %d", lo, hi, n, err, len(conjRows))
	}
	if s, err := r.Sum("a", preds); err != nil || s != conjSum {
		t.Fatalf("conjunctive Sum[%d,%d) = %d, %v; want %d", lo, hi, s, err, conjSum)
	}
	if got, err := r.Rows(preds); err != nil || !slices.Equal(got, conjRows) {
		t.Fatalf("conjunctive Rows[%d,%d) = %v, %v; want %v", lo, hi, got, err, conjRows)
	}
}

// TestHolisticConvergesOnDuplicates: a column holding one distinct value
// cannot be cracked into smaller pieces, so the daemon must retire it as
// optimal and report the index space converged — not pick it, and fail
// to refine it, on every cycle forever.
func TestHolisticConvergesOnDuplicates(t *testing.T) {
	tab := engine.NewTable("R")
	tab.MustAddColumn(column.New("a", degenerateColumns()["duplicates"]))
	exec := allModeExecutors(t, tab)["holistic"]
	defer exec.Close()
	if n, err := exec.Count("a", 0, 10); err != nil || n != 3000 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for exec.Daemon().Convergence().Ratio < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never converged: %+v", exec.Daemon().Convergence().Indexes)
		}
		time.Sleep(time.Millisecond)
	}
	attempts := exec.Daemon().Attempts()
	time.Sleep(20 * time.Millisecond) // twenty more tuning intervals
	if got := exec.Daemon().Attempts(); got != attempts {
		t.Errorf("refine attempts kept growing after convergence: %d -> %d", attempts, got)
	}
	if c := exec.Daemon().Convergence(); len(c.Indexes) != 1 || c.Indexes[0].State != "optimal" {
		t.Errorf("index not retired as optimal: %+v", c.Indexes)
	}
}

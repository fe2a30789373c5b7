package cracking

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"holistic/internal/column"
	"holistic/internal/model"
)

// TestLayoutFollowsData: rowids ride in the value's word exactly when the
// column's values fit one window — whether or not the first touch's
// sample saw the value that does not.
func TestLayoutFollowsData(t *testing.T) {
	narrow := randVals(2*packBlock+5000, 91, 1<<30)
	with := func(pos int, v int64) []int64 {
		base := slices.Clone(narrow)
		base[pos] = v
		return base
	}
	two := func(a, b int64) []int64 {
		base := make([]int64, 1000)
		for i := range base {
			base[i] = []int64{a, b}[i%2]
		}
		return base
	}
	shifted := slices.Clone(narrow)
	for i := range shifted {
		shifted[i] += math.MaxInt64 - 1<<30
	}
	for _, tc := range []struct {
		name   string
		base   []int64
		packed bool
	}{
		{"fits", narrow, true},
		{"fits at the top of int64", shifted, true},
		{"empty", nil, true},
		{"sampled outlier", with(0, 1<<40), false},
		{"outlier in the first block", with(1, 1<<40), false},
		{"outlier in a later block", with(2*packBlock+1, -1<<40), false},
		{"last value an outlier", with(len(narrow)-1, math.MinInt64), false},
		{"span exactly one window", two(5, 5+window-1), true},
		{"span one past a window", two(5, 5+window), false},
	} {
		for _, bounds := range [][2]int64{{0, 0}, {1 << 28, 1 << 29}} {
			t.Run(fmt.Sprintf("%s/[%d,%d)", tc.name, bounds[0], bounds[1]), func(t *testing.T) {
				c := NewCracked("a", tc.base, Config{}, bounds[0], bounds[1])
				if c.packed != tc.packed {
					t.Fatalf("packed = %v, want %v", c.packed, tc.packed)
				}
				if c.packed && c.rows != nil {
					t.Fatal("a packed column kept a rowid array")
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				snap := c.Snapshot()
				if got, want := slices.Clone(snap), slices.Clone(tc.base); !slices.Equal(sorted(got), sorted(want)) {
					t.Fatal("the column does not hold the base values")
				}
				for i, r := range c.SnapshotRows() {
					if tc.base[r] != snap[i] {
						t.Fatalf("tuple %d: rowid %d is value %d in base, %d in the column", i, r, tc.base[r], snap[i])
					}
				}
			})
		}
	}
}

func sorted(vals []int64) []int64 {
	slices.Sort(vals)
	return vals
}

// TestRefForCoversAndStaysInInt64: the window chosen for a value span
// covers it and lies inside int64 at both ends, at the extremes too.
func TestRefForCoversAndStaysInInt64(t *testing.T) {
	for _, d := range [][2]int64{
		{0, 0}, {-5, 5}, {0, window - 1}, {math.MinInt64, math.MinInt64 + 10}, {math.MaxInt64 - 10, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + window - 1}, {math.MaxInt64 - window + 1, math.MaxInt64}, {-1 << 31, 1<<31 - 1},
	} {
		ref, ok := refFor(d[0], d[1])
		if !ok {
			t.Fatalf("refFor(%d, %d) declined a span that fits", d[0], d[1])
		}
		lay := packedAt(ref)
		if ref > math.MaxInt64-(window-1) || !lay.fits(d[0]) || !lay.fits(d[1]) {
			t.Fatalf("refFor(%d, %d) = %d does not cover the span inside int64", d[0], d[1], ref)
		}
		for _, v := range d {
			if w := lay.word(v, 7); lay.value(w) != v || uint32(w) != 7 {
				t.Fatalf("window at %d: (%d, 7) packs to %#x and decodes to (%d, %d)", ref, v, w, lay.value(w), uint32(w))
			}
		}
		if ref > math.MinInt64 && lay.fits(ref-1) || ref < math.MaxInt64-(window-1) && lay.fits(ref+window) {
			t.Fatalf("window at %d admits a value outside it", ref)
		}
	}
	for _, d := range [][2]int64{{0, window}, {math.MinInt64, math.MaxInt64}, {-1, math.MaxInt64}, {1, 0}} {
		if _, ok := refFor(d[0], d[1]); ok {
			t.Fatalf("refFor(%d, %d) accepted a span no window holds", d[0], d[1])
		}
	}
}

// anyLive picks one live tuple of the model's attribute a at random.
func anyLive(m *model.Table, rng *rand.Rand) (row uint32, v int64) {
	rows := m.Rows(nil, "a")
	row = rows[rng.Intn(len(rows))]
	v, _ = m.Get("a", row)
	return row, v
}

// checkRange compares every read a cracker column offers over [lo, hi)
// with the model of its tuples (attribute a): count, sum, extrema, rowids
// (materialized, streamed and through segments), values through
// segments.
func checkRange(t *testing.T, c *Column, m *model.Table, lo, hi int64) {
	t.Helper()
	p := []model.Pred{{Attr: "a", Lo: lo, Hi: hi}}
	rows, sum := m.Rows(p), m.Sum("a", p)
	mn, mx, _ := m.MinMax("a", p)
	if got := c.SelectRange(lo, hi).Count(); got != len(rows) {
		t.Fatalf("[%d,%d): SelectRange counts %d, scan %d", lo, hi, got, len(rows))
	}
	if r, got := c.SelectSum(lo, hi); got != sum || r.Count() != len(rows) {
		t.Fatalf("[%d,%d): SelectSum = %d over %d, scan %d over %d", lo, hi, got, r.Count(), sum, len(rows))
	}
	_, got := c.SelectRows(lo, hi)
	slices.Sort(got)
	if !slices.Equal(got, rows) {
		t.Fatalf("[%d,%d): SelectRows returns %d rowids, scan %d, or different ones", lo, hi, len(got), len(rows))
	}
	var streamed []uint32
	c.SelectRowsFunc(lo, hi, func(rows []uint32) { streamed = append(streamed, rows...) })
	slices.Sort(streamed)
	if !slices.Equal(streamed, rows) {
		t.Fatalf("[%d,%d): SelectRowsFunc streams %d rowids, scan %d, or different ones", lo, hi, len(streamed), len(rows))
	}
	var segSum int64
	var segRows []uint32
	segMn, segMx := int64(math.MaxInt64), int64(math.MinInt64)
	// Sized for nothing, so MarkRows must extend; shifted marks the same
	// rowids three up, through the atomic form. Not for the tests' huge
	// rowids: a bitmap reaches as far as its highest bit.
	const universe = 1 << 20
	mark := len(rows) > 0 && rows[len(rows)-1] < universe-3
	marked, shifted := column.NewBitmap(0), column.NewBitmap(universe)
	c.SelectSegments(lo, hi, func(_ Range, s Segment) {
		if mark {
			s.MarkRows(marked, 0)
			s.MarkRows(shifted, 3)
		}
		a, b := s.Bounds()
		segMn, segMx = min(segMn, a), max(segMx, b)
		segSum += s.Sum()
		var buf [7]uint32 // small and odd, so chunks straddle segments
		for from := 0; from < s.Len(); {
			chunk := s.rowsFrom(from, buf[:])
			for i, r := range chunk {
				if s.Row(from+i) != r {
					t.Fatalf("[%d,%d): rowsFrom and Row disagree at %d", lo, hi, from+i)
				}
			}
			segRows = append(segRows, chunk...)
			from += len(chunk)
		}
		for i := 0; i < s.Len(); i++ {
			if v := s.Value(i); v < lo || v >= hi {
				t.Fatalf("[%d,%d): segment holds value %d", lo, hi, v)
			}
		}
	})
	slices.Sort(segRows)
	if mark {
		if got := marked.AppendPositions(nil); !slices.Equal(got, rows) {
			t.Fatalf("[%d,%d): MarkRows sets %d bits, scan has %d rowids, or different ones", lo, hi, len(got), len(rows))
		}
		if got := shifted.AppendPositions(nil); len(got) != len(rows) || got[0] != rows[0]+3 || got[len(got)-1] != rows[len(rows)-1]+3 {
			t.Fatalf("[%d,%d): MarkRows with a row base sets %d bits, scan has %d rowids", lo, hi, len(got), len(rows))
		}
	}
	if segSum != sum || !slices.Equal(segRows, rows) {
		t.Fatalf("[%d,%d): segments sum to %d over %d rowids, scan %d over %d", lo, hi, segSum, len(segRows), sum, len(rows))
	}
	if len(rows) > 0 && (segMn != mn || segMx != mx) {
		t.Fatalf("[%d,%d): segment bounds [%d,%d], scan [%d,%d]", lo, hi, segMn, segMx, mn, mx)
	}
}

// checkLowestRow compares LowestRow(v) with the smallest rowid the model
// holds for v and, when nothing refines the column meanwhile, checks that
// the lookup left the pieces alone.
func checkLowestRow(t *testing.T, c *Column, m *model.Table, v int64, quiet bool) {
	t.Helper()
	want, held := m.Lowest("a", v)
	pieces := c.Pieces()
	if row, ok := c.LowestRow(v); ok != held || row != want {
		t.Fatalf("LowestRow(%d) = (%d, %v), scan finds (%d, %v)", v, row, ok, want, held)
	}
	if quiet && c.Pieces() != pieces {
		t.Fatalf("LowestRow(%d) took the column from %d to %d pieces", v, pieces, c.Pieces())
	}
}

// layoutSession drives one seeded sequence of everything a cracker
// column does — selects, sums, extrema, row materialisations, refinement,
// ripple inserts and deletes by value and by row, export and restore —
// on base, checking every read against the model, and returns the
// column it ends with. refine, when set, is told each column the session
// moves to so it can keep refining it from another goroutine.
func layoutSession(t *testing.T, base []int64, seed int64, refine func(*Column)) *Column {
	t.Helper()
	const domain = 1 << 20
	cfg := Config{Seed: seed}
	m := model.New([]string{"a"}, base)
	rng := rand.New(rand.NewSource(seed))
	lo := rng.Int63n(domain)
	c := NewCracked("a", base, cfg, lo, lo+domain/8)
	wantPacked := c.packed
	if refine != nil {
		refine(c)
	}
	nextRow := uint32(len(base))
	for step := 0; step < 300; step++ {
		lo := rng.Int63n(domain) - domain/16
		hi := lo + rng.Int63n(domain/4) + 1
		switch rng.Intn(12) {
		case 0:
			lo, hi = math.MinInt64, math.MaxInt64
		case 1:
			lo = math.MinInt64
		case 2:
			hi = math.MaxInt64
		case 3:
			lo, hi = hi, lo
		}
		checkRange(t, c, m, lo, hi)
		_, v := anyLive(m, rng)
		checkLowestRow(t, c, m, v, refine == nil)
		checkLowestRow(t, c, m, lo, refine == nil) // held by no tuple, or by luck
		switch step % 6 {
		case 0:
			c.TryRefineAt(rng.Int63n(domain), 16)
		case 1, 2:
			v := rng.Int63n(domain)
			c.MergeInsert(v, nextRow)
			m.Put("a", nextRow, v)
			nextRow++
		case 3: // delete one tuple by value, whichever the column picks
			_, v := anyLive(m, rng)
			row, found := c.MergeDelete(v)
			if held, ok := m.Get("a", row); !found || !ok || held != v {
				t.Fatalf("step %d: MergeDelete(%d) = row %d, found %v; no such live tuple", step, v, row, found)
			}
			m.DeleteRow("a", row)
		case 4: // delete one exact tuple
			want, v := anyLive(m, rng)
			if row, found := c.MergeDeleteRow(v, want); !found || row != want {
				t.Fatalf("step %d: MergeDeleteRow(%d, %d) = row %d, found %v", step, v, want, row, found)
			}
			m.DeleteRow("a", want)
		case 5:
			if _, found := c.MergeDelete(domain + 5); found {
				t.Fatalf("step %d: deleted a value the column never held", step)
			}
			if step%30 == 5 {
				// A copy of the state as stored, so that Restore adopts
				// arrays the live column does not share.
				var st State
				c.ViewState(func(live State) error {
					st = live
					st.Vals, st.Rows = slices.Clone(live.Vals), slices.Clone(live.Rows)
					return nil
				})
				if st.Packed != c.packed || (st.Rows != nil) == c.packed {
					t.Fatalf("step %d: state of a column with packed = %v has Packed = %v and %d rowids", step, c.packed, st.Packed, len(st.Rows))
				}
				pieces := len(st.Keys)
				restored, err := Restore("a", st, cfg)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if restored.Pieces() != pieces {
					t.Fatalf("step %d: restore kept %d of %d pieces", step, restored.Pieces(), pieces)
				}
				if c = restored; refine != nil {
					refine(c)
				}
			}
		}
		if c.packed != wantPacked {
			t.Fatalf("step %d: packed = %v; the data alone decides, and it said %v", step, c.packed, wantPacked)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLayoutDifferential: the same seeded session on data that packs and
// on the same data plus the two values that make packing impossible
// answers every range like the model — so the layouts agree with
// each other wherever they hold the same tuples.
func TestLayoutDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := randVals(8_000, 100+seed, 1<<20)
		if c := layoutSession(t, d, seed, nil); !c.packed {
			t.Fatal("the narrow data did not pack")
		}
		if c := layoutSession(t, append(slices.Clone(d), math.MinInt64, math.MaxInt64), seed, nil); c.packed {
			t.Fatal("a column holding MinInt64 and MaxInt64 packed")
		}
	}
}

// TestLayoutDifferentialUnderRefinement is the differential with a
// refinement worker cracking the session's column the whole time, as the
// daemon does: every read still matches the scan under either layout.
func TestLayoutDifferentialUnderRefinement(t *testing.T) {
	d := randVals(20_000, 111, 1<<20)
	for _, base := range [][]int64{d, append(slices.Clone(d), math.MinInt64, math.MaxInt64)} {
		var mu sync.Mutex
		var target *Column
		stop := make(chan struct{})
		var worker sync.WaitGroup
		worker.Add(1)
		go func() {
			defer worker.Done()
			rng := rand.New(rand.NewSource(112))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				c := target
				mu.Unlock()
				if c != nil {
					c.TryRefineAt(rng.Int63n(1<<20), 32)
				}
			}
		}()
		layoutSession(t, base, 113, func(c *Column) {
			mu.Lock()
			target = c
			mu.Unlock()
		})
		close(stop)
		worker.Wait()
	}
}

// TestInsertOutsideWindowWidens: a cracked, refined packed column that
// has seen deletes takes MinInt64, MaxInt64 and the first value past its
// window by turning wide, once, and answers every range like the scan
// before and after.
func TestInsertOutsideWindowWidens(t *testing.T) {
	for _, name := range []string{"MinInt64", "MaxInt64", "ref+2^32"} {
		t.Run(name, func(t *testing.T) {
			const domain = 1 << 20
			base := randVals(30_000, 121, domain)
			c := New("a", base, Config{})
			m := model.New([]string{"a"}, base)
			rng := rand.New(rand.NewSource(122))
			for i := 0; i < 40; i++ {
				lo := rng.Int63n(domain)
				c.SelectRange(lo, lo+rng.Int63n(domain/8)+1)
				c.TryRefineAt(rng.Int63n(domain), 16)
			}
			for i := 0; i < 20; i++ {
				row, v := anyLive(m, rng)
				if _, found := c.MergeDeleteRow(v, row); !found {
					t.Fatalf("delete of live tuple (%d, %d) not found", v, row)
				}
				m.DeleteRow("a", row)
			}
			outside := map[string]int64{"MinInt64": math.MinInt64, "MaxInt64": math.MaxInt64, "ref+2^32": c.ref() + window}[name]
			ranges := [][2]int64{
				{math.MinInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1}, {math.MaxInt64 - 1, math.MaxInt64},
				{0, domain}, {domain / 4, domain / 2}, {outside - 1, outside + 1}, {c.ref() + window - 2, c.ref() + window + 2},
				{c.ref() - 2, c.ref() + 2}, {-5, 5},
			}
			for i := 0; i < 20; i++ {
				lo := rng.Int63n(domain)
				ranges = append(ranges, [2]int64{lo, lo + rng.Int63n(domain/4) + 1})
			}
			check := func(stage string) {
				t.Helper()
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for _, r := range ranges {
					checkRange(t, c, m, r[0], r[1])
					checkLowestRow(t, c, m, r[0], true)
					checkLowestRow(t, c, m, r[1], true)
				}
				checkLowestRow(t, c, m, outside, true)
			}
			if !c.packed {
				t.Fatal("the column did not start packed")
			}
			check("packed")
			// The last value inside the window does not widen.
			edge := c.ref() + window - 1
			c.MergeInsert(edge, 1<<31)
			m.Put("a", 1<<31, edge)
			if !c.packed {
				t.Fatal("an insert of the window's last value widened the column")
			}
			check("window edge")
			pieces := c.Pieces()
			c.MergeInsert(outside, math.MaxUint32)
			m.Put("a", math.MaxUint32, outside)
			if c.packed || c.Pieces() != pieces {
				t.Fatalf("after the outside insert: packed = %v, %d pieces (had %d)", c.packed, c.Pieces(), pieces)
			}
			if lo, hi := c.Domain(); lo > outside || hi < outside {
				t.Fatalf("Domain() = [%d,%d] misses the inserted %d", lo, hi, outside)
			}
			check("widened")
			for i := 0; i < 20; i++ {
				v := rng.Int63n(domain)
				c.MergeInsert(v, uint32(len(base)+i))
				m.Put("a", uint32(len(base)+i), v)
				c.TryRefineAt(rng.Int63n(domain), 16)
			}
			if row, found := c.MergeDeleteRow(outside, math.MaxUint32); !found || row != math.MaxUint32 {
				t.Fatalf("MergeDeleteRow of the outside tuple = %d, %v", row, found)
			}
			m.DeleteRow("a", math.MaxUint32)
			check("after more writes")
		})
	}
}

// TestPackedPivotsOutsideWindow: cracks at values before and past a
// packed column's window — which have no word — put every tuple on the
// right side and leave a boundary that later cracks respect.
func TestPackedPivotsOutsideWindow(t *testing.T) {
	base := randVals(10_000, 131, 1<<20)
	c := New("a", base, Config{ParallelWorkers: 2, MinParallelPiece: 512})
	n := len(base)
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{math.MaxInt64, n}, {c.ref() + window, n}, {c.ref() + window + 12345, n},
		{c.ref(), 0}, {c.ref() - 1, 0}, {math.MinInt64 + 1, 0},
		{1 << 19, column.CountRange(base, math.MinInt64, 1<<19)},
	} {
		if pos, _ := c.CrackAt(tc.v); pos != tc.want {
			t.Fatalf("CrackAt(%d) = %d, want %d", tc.v, pos, tc.want)
		}
		if out := c.TryRefineAt(tc.v, 1); out != RefineExact {
			t.Fatalf("TryRefineAt(%d) after the crack = %v", tc.v, out)
		}
	}
	if !c.packed {
		t.Fatal("cracking outside the window widened the column")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

package column

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"holistic/internal/cpu"
)

// kernelVals is the differential's column: uniform in [-1000, 1000) with
// both int64 extremes planted, so the widest range excludes exactly one
// value and the biased compare is held at both ends.
func kernelVals(n int) []int64 {
	vals := randVals(n, 2000, int64(n)+3)
	for i := range vals {
		vals[i] -= 1000
	}
	if n > 0 {
		vals[0] = math.MinInt64
	}
	if n > 1 {
		vals[n-1] = math.MaxInt64
	}
	return vals
}

// kernelViews returns base under every overlay shape: none, appended
// rows, deletions, updates, and all three with a row both updated and
// deleted and a tail row touched by each.
func kernelViews(base []int64) map[string]View {
	n := len(base)
	tail := kernelVals(130)
	deleted, updated := map[Pos]struct{}{}, map[Pos]int64{}
	for p := 3; p < n; p += 7 {
		deleted[Pos(p)] = struct{}{}
	}
	for p := 5; p < n; p += 11 {
		updated[Pos(p)] = int64(p%1700) - 600
	}
	both := View{Base: base, Tail: tail, Deleted: map[Pos]struct{}{Pos(n + 64): {}}, Updated: map[Pos]int64{Pos(n + 1): math.MaxInt64, Pos(n + 64): 0}}
	for p := range deleted {
		both.Deleted[p] = struct{}{}
	}
	for p, v := range updated {
		both.Updated[p] = v
	}
	if n > 3 {
		both.Updated[3] = 7 // deleted as well: deletion wins
	}
	return map[string]View{
		"plain":   {Base: base},
		"tail":    {Base: base, Tail: tail},
		"deleted": {Base: base, Deleted: deleted},
		"updated": {Base: base, Updated: updated},
		"all":     both,
	}
}

// logical is the naive model of a View over [0, universe): what each
// position holds, written without View.At.
type logical struct {
	vals []int64
	ok   []bool
}

func logicalOf(w View, universe int) logical {
	l := logical{vals: make([]int64, universe), ok: make([]bool, universe)}
	for p := range l.vals {
		switch {
		case p < len(w.Base):
			l.vals[p], l.ok[p] = w.Base[p], true
		case p-len(w.Base) < len(w.Tail):
			l.vals[p], l.ok[p] = w.Tail[p-len(w.Base)], true
		}
	}
	for p, v := range w.Updated {
		if int(p) < universe {
			l.vals[p], l.ok[p] = v, true
		}
	}
	for p := range w.Deleted {
		if int(p) < universe {
			l.ok[p] = false
		}
	}
	return l
}

// fold is what the reference computes over the positions it keeps.
type refFold struct {
	pos    PosList
	vals   []int64
	sum    int64
	mn, mx int64
}

func (l logical) fold(sel PosList, keep func(v int64) bool) refFold {
	f := refFold{pos: PosList{}, vals: []int64{}}
	for _, p := range sel {
		if int(p) >= len(l.ok) || !l.ok[p] || !keep(l.vals[p]) {
			continue
		}
		v := l.vals[p]
		if len(f.pos) == 0 || v < f.mn {
			f.mn = v
		}
		if len(f.pos) == 0 || v > f.mx {
			f.mx = v
		}
		f.pos, f.vals, f.sum = append(f.pos, p), append(f.vals, v), f.sum+v
	}
	return f
}

func bitmapOf(universe int, sel PosList) *Bitmap {
	b := NewBitmap(universe)
	for _, p := range sel {
		b.Set(p)
	}
	return b
}

var (
	kernelSizes   = []int{0, 1, 63, 64, 65, 2047, 2048, 2049, 32767, 32768, 32769, 100003}
	kernelWorkers = []int{1, 2, 3, 8}
	kernelRanges  = []struct {
		name   string
		lo, hi int64
	}{
		{"normal", -300, 400},
		{"empty", 7, 7},
		{"inverted", 400, -300},
		{"widest", math.MinInt64, math.MaxInt64},
		{"all-qualify", -1000, 1000}, // all but the two planted extremes
		{"none-qualify", 5000, 6000},
	}
)

// TestKernelsMatchReference holds every exported kernel and View method
// against a per-element reference: sizes around word, chunk and
// parallel-threshold edges, every worker count, degenerate and extreme
// ranges, every overlay shape, and selections that are exactly the base
// or reach past Extent().
func TestKernelsMatchReference(t *testing.T) {
	for _, n := range kernelSizes {
		base := kernelVals(n)
		for vname, w := range kernelViews(base) {
			// "exact" selects every base position, so its length sits on
			// the size under test; "past" selects two of every three
			// positions of a universe 70 beyond the view's extent.
			exact, past := make(PosList, n), PosList{}
			for i := range exact {
				exact[i] = Pos(i)
			}
			for p := 0; p < w.Extent()+70; p++ {
				if p%3 != 1 {
					past = append(past, Pos(p))
				}
			}
			for sname, sel := range map[string]PosList{"exact": exact, "past": past} {
				universe := n
				if sname == "past" {
					universe = w.Extent() + 70
				}
				l := logicalOf(w, universe)
				for _, rg := range kernelRanges {
					name := fmt.Sprintf("n=%d view=%s sel=%s range=%s", n, vname, sname, rg.name)
					inRg := func(v int64) bool { return v >= rg.lo && v < rg.hi }
					if vname == "plain" && sname == "exact" {
						checkDense(t, name, base, rg.lo, rg.hi, l.fold(exact, inRg))
						checkArrays(t, name, base, past, universe+70, rg.lo, rg.hi)
					}
					checkView(t, name, w, l, sel, universe, rg.lo, rg.hi)
				}
			}
		}
	}
}

// checkDense: the scans of a whole array, each door at every worker
// count.
func checkDense(t *testing.T, name string, vals []int64, lo, hi int64, want refFold) {
	t.Helper()
	bm := NewBitmap(0)
	if got := CountRange(vals, lo, hi); got != len(want.pos) {
		t.Fatalf("%s: CountRange = %d, want %d", name, got, len(want.pos))
	}
	if got := ScanRange(vals, lo, hi); !slices.Equal(got, want.pos) {
		t.Fatalf("%s: ScanRange diverges (%d positions, want %d)", name, len(got), len(want.pos))
	}
	ScanRangeBitmap(vals, lo, hi, bm)
	if got := bm.AppendPositions(nil); bm.Len() != len(vals) || bm.Count() != len(want.pos) || !slices.Equal(got, want.pos) {
		t.Fatalf("%s: ScanRangeBitmap diverges (%d of %d set, want %d of %d)", name, bm.Count(), bm.Len(), len(want.pos), len(vals))
	}
	for _, k := range kernelWorkers {
		if got := ParallelCountRange(vals, lo, hi, k); got != len(want.pos) {
			t.Fatalf("%s workers=%d: ParallelCountRange = %d, want %d", name, k, got, len(want.pos))
		}
		if got := ParallelSumRange(vals, lo, hi, k); got != want.sum {
			t.Fatalf("%s workers=%d: ParallelSumRange = %d, want %d", name, k, got, want.sum)
		}
		if mn, mx, cnt := ParallelMinMaxRange(vals, lo, hi, k); cnt != len(want.pos) || (cnt > 0 && (mn != want.mn || mx != want.mx)) {
			t.Fatalf("%s workers=%d: ParallelMinMaxRange = (%d, %d, %d), want (%d, %d, %d)", name, k, mn, mx, cnt, want.mn, want.mx, len(want.pos))
		}
		if got := ParallelScanRange(vals, lo, hi, k); !slices.Equal(got, want.pos) {
			t.Fatalf("%s workers=%d: ParallelScanRange diverges", name, k)
		}
		ParallelScanRangeBitmap(vals, lo, hi, bm, k)
		if got := bm.AppendPositions(nil); bm.Len() != len(vals) || !slices.Equal(got, want.pos) {
			t.Fatalf("%s workers=%d: ParallelScanRangeBitmap diverges", name, k)
		}
	}
}

// checkArrays: the kernels that probe a bare array at a selection, which
// may reach past the array (no value there: dropped by the filters; the
// folds are handed only what is in range).
func checkArrays(t *testing.T, name string, vals []int64, sel PosList, universe int, lo, hi int64) {
	t.Helper()
	l := logicalOf(View{Base: vals}, universe)
	want := l.fold(sel, func(v int64) bool { return v >= lo && v < hi })
	present := l.fold(sel, func(int64) bool { return true })
	if got := FilterRows(vals, sel, lo, hi); !slices.Equal(got, want.pos) {
		t.Fatalf("%s: FilterRows diverges", name)
	}
	for _, k := range kernelWorkers {
		if got := ParallelFilterRows(vals, sel, lo, hi, k); !slices.Equal(got, want.pos) {
			t.Fatalf("%s workers=%d: ParallelFilterRows diverges", name, k)
		}
	}
	bm := bitmapOf(universe, sel)
	FilterBitmap(vals, bm, lo, hi)
	if got := bm.AppendPositions(nil); !slices.Equal(got, want.pos) {
		t.Fatalf("%s: FilterBitmap diverges", name)
	}
	if got := FetchRows(vals, present.pos); !slices.Equal(got, present.vals) {
		t.Fatalf("%s: FetchRows diverges", name)
	}
	if got := SumBitmap(vals, bitmapOf(universe, present.pos)); got != present.sum {
		t.Fatalf("%s: SumBitmap = %d, want %d", name, got, present.sum)
	}
}

// checkView: At, GatherRows and ExtendBounds against the reference, then
// every View × Selection method over sel.
func checkView(t *testing.T, name string, w View, l logical, sel PosList, universe int, lo, hi int64) {
	t.Helper()
	present := l.fold(sel, func(int64) bool { return true })
	// At is the walkers' definition of a value; a sample is enough at size.
	for i := 0; i < len(sel); i += max(1, len(sel)/100) {
		p := sel[i]
		v, ok := w.At(p)
		if j := slices.Index(present.pos, p); ok != (j >= 0) || (ok && v != present.vals[j]) {
			t.Fatalf("%s: At(%d) = (%d, %v) against the reference", name, p, v, ok)
		}
	}
	if got := w.GatherRows([]int64{42}, present.pos); got[0] != 42 || !slices.Equal(got[1:], present.vals) {
		t.Fatalf("%s: View.GatherRows diverges", name)
	}
	// Bounds widened by the overlay cover every value the view can show.
	bLo, bHi := w.ExtendBounds(Bounds(w.Base))
	if len(present.pos) > 0 && (present.mn < bLo || present.mx > bHi) {
		t.Fatalf("%s: ExtendBounds = [%d, %d] misses [%d, %d]", name, bLo, bHi, present.mn, present.mx)
	}
	checkSelection(t, name, w, l, sel, universe, lo, hi, kernelWorkers)
}

// checkSelection: the five View methods and Selection's own over sel in
// both representations. The bitmap holds sel ascending, the position
// list in the order given — a driving select promises none — and what
// comes out positional comes out ascending either way.
func checkSelection(t *testing.T, name string, w View, l logical, sel PosList, universe int, lo, hi int64, workers []int) {
	t.Helper()
	if !w.Plain() {
		workers = workers[:1] // the walkers never fan out
	}
	asc := slices.Clone(sel)
	slices.Sort(asc)
	sorted := func(pos PosList) PosList { pos = slices.Clone(pos); slices.Sort(pos); return pos }
	for rep, order := range map[string]PosList{"bitmap": asc, "poslist": sel} {
		mk := func(pos PosList) *Selection {
			if rep == "bitmap" {
				return &Selection{Bits: bitmapOf(universe, pos), Dense: true}
			}
			return &Selection{Rows: slices.Clone(pos)}
		}
		want := l.fold(order, func(v int64) bool { return v >= lo && v < hi })
		present := l.fold(order, func(int64) bool { return true })
		for _, k := range workers {
			ctx := fmt.Sprintf("%s rep=%s workers=%d", name, rep, k)
			s := mk(order)
			w.Filter(s, lo, hi, k)
			if s.Count() != len(want.pos) || s.Any() != (len(want.pos) > 0) {
				t.Fatalf("%s: Filter leaves Count %d, Any %v, want %d rows", ctx, s.Count(), s.Any(), len(want.pos))
			}
			if rep == "poslist" && !slices.Equal(s.Rows, want.pos) {
				t.Fatalf("%s: Filter does not keep the list's order", ctx)
			}
			if got := s.Positions(PosList{7}); got[0] != 7 || !slices.Equal(got[1:], sorted(want.pos)) {
				t.Fatalf("%s: Filter then Positions diverges", ctx)
			}
			s = mk(present.pos)
			if got := w.Fetch(s, []int64{42}, k); got[0] != 42 || !slices.Equal(got[1:], present.vals) {
				t.Fatalf("%s: Fetch diverges", ctx)
			}
			if got := w.Sum(s, k); got != present.sum {
				t.Fatalf("%s: Sum = %d, want %d", ctx, got, present.sum)
			}
			if mn, mx, cnt := w.MinMax(s); cnt != len(present.pos) || (cnt > 0 && (mn != present.mn || mx != present.mx)) {
				t.Fatalf("%s: MinMax = (%d, %d, %d), want (%d, %d, %d)", ctx, mn, mx, cnt, present.mn, present.mx, len(present.pos))
			}
		}
		// Intersecting with the conjunct's own selection is Filter, the
		// selection's order kept, whether that covers no more positions
		// than it needs (an attribute without the appended rows) or more
		// than the universe.
		need := 0
		if len(want.pos) > 0 {
			need = int(slices.Max(want.pos)) + 1
		}
		for _, n := range []int{need, universe + 130} {
			s := mk(order)
			s.Intersect(bitmapOf(n, want.pos))
			if rep == "poslist" && !slices.Equal(s.Rows, want.pos) || !slices.Equal(s.Positions(nil), sorted(want.pos)) {
				t.Fatalf("%s rep=%s: Intersect over %d positions diverges from Filter", name, rep, n)
			}
		}
		s := mk(order)
		w.Present(s)
		if got := s.Positions(nil); !slices.Equal(got, sorted(present.pos)) {
			t.Fatalf("%s rep=%s: Present diverges", name, rep)
		}
		s.Sort()
		if rep == "poslist" && !slices.IsSorted(s.Rows) {
			t.Fatalf("%s: Sort leaves the list unsorted", name)
		}
	}
}

// TestSelectionMatchesReference holds the View × Selection operators
// against the per-element reference at both representations, sizes
// around word and chunk edges, plain and fully overlaid views, every
// range shape, over a selection that reaches past Extent() and arrives
// in no particular order.
func TestSelectionMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, 100003} {
		views := kernelViews(kernelVals(n))
		for _, vname := range []string{"plain", "all"} {
			w := views[vname]
			universe := w.Extent() + 70
			l := logicalOf(w, universe)
			sel := PosList{}
			for p := 0; p < universe; p++ {
				if p%3 != 1 {
					sel = append(sel, Pos(p))
				}
			}
			rand.New(rand.NewSource(int64(n))).Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
			for _, rg := range kernelRanges {
				name := fmt.Sprintf("n=%d view=%s range=%s", n, vname, rg.name)
				checkSelection(t, name, w, l, sel, universe, rg.lo, rg.hi, []int{1, 2, 3})
			}
		}
	}
}

// TestFoldsPanicOnMissingValue: a folding walk handed a position without
// a value is a caller bug and says so, in both representations.
func TestFoldsPanicOnMissingValue(t *testing.T) {
	w := View{Base: []int64{1, 2, 3}, Deleted: map[Pos]struct{}{1: {}}}
	for name, run := range map[string]func(){
		"Sum":        func() { w.Sum(&Selection{Rows: PosList{0, 1}}, 1) },
		"GatherRows": func() { w.GatherRows(nil, PosList{5}) },
		"MinMax":     func() { w.MinMax(&Selection{Bits: bitmapOf(3, PosList{1}), Dense: true}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over a row without a value did not panic", name)
				}
			}()
			run()
		}()
	}
}

// TestSequentialDoorsAllocationFree: with one worker, or below the
// parallel threshold with many, no door and no View method allocates —
// the closure for the fan-out must not be built before the door knows it
// fans out. Overlaid views hold the walkers to the same standard.
func TestSequentialDoorsAllocationFree(t *testing.T) {
	var sink int64
	for _, c := range []struct{ n, workers int }{{1 << 16, 1}, {minParallelScan - 1, 8}, {minParallelSel - 200, 8}} {
		vals, k := kernelVals(c.n), c.workers
		tmp := NewBitmap(0)
		doors := map[string]func(){
			"ParallelCountRange":      func() { sink += int64(ParallelCountRange(vals, -300, 400, k)) },
			"ParallelSumRange":        func() { sink += ParallelSumRange(vals, -300, 400, k) },
			"ParallelMinMaxRange":     func() { _, _, n := ParallelMinMaxRange(vals, -300, 400, k); sink += int64(n) },
			"ParallelScanRangeBitmap": func() { ParallelScanRangeBitmap(vals, -300, 400, tmp, k) },
		}
		if c.n >= minParallelScan && k > 1 {
			doors = nil // this size is for the selection kernels below
		}
		for name, run := range doors {
			run() // size the scratch
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%s over %d values with %d workers allocates %.1f times, want 0", name, c.n, k, allocs)
			}
		}
		if c.n < minParallelSel-200 {
			continue
		}
		for vname, w := range map[string]View{"plain": {Base: vals}, "overlaid": kernelViews(vals)["all"]} {
			// Folds run over what has a value; filters over everything.
			all := make(PosList, w.Extent())
			for i := range all {
				all[i] = Pos(i)
			}
			ps := Selection{Rows: slices.Clone(all)}
			w.Present(&ps)
			present := ps.Rows
			allBits := bitmapOf(w.Extent(), all)
			valBuf := make([]int64, 0, len(all))
			rows, bits := Selection{Rows: make(PosList, 0, len(all))}, Selection{Bits: tmp, Dense: true}
			presentRows, presentBits := Selection{Rows: present}, Selection{Bits: bitmapOf(w.Extent(), present), Dense: true}
			refill := func() {
				rows.Rows = append(rows.Rows[:0], all...)
				tmp.Reset(w.Extent())
				copy(tmp.words, allBits.words)
			}
			methods := map[string]func(){"GatherRows": func() { valBuf = w.GatherRows(valBuf[:0], present) }}
			for rep, s := range map[string][2]*Selection{"poslist": {&rows, &presentRows}, "bitmap": {&bits, &presentBits}} {
				methods["Filter/"+rep] = func() { refill(); w.Filter(s[0], -300, 400, k) }
				methods["Present/"+rep] = func() { refill(); w.Present(s[0]) }
				methods["Intersect/"+rep] = func() { refill(); s[0].Intersect(allBits) }
				methods["Fetch/"+rep] = func() { valBuf = w.Fetch(s[1], valBuf[:0], k) }
				methods["Sum/"+rep] = func() { sink += w.Sum(s[1], k) }
				methods["MinMax/"+rep] = func() { _, _, n := w.MinMax(s[1]); sink += int64(n) }
			}
			for name, run := range methods {
				run()
				if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
					t.Errorf("%s view: %s over %d rows with %d workers allocates %.1f times, want 0", vname, name, len(all), k, allocs)
				}
			}
		}
	}
	_ = sink
}

// TestFanOutCoversExactlyOnce: ForChunks hands out every index of [0, n)
// exactly once, in aligned non-empty chunks numbered below workers, and
// returns how many chunks ran, for sizes and alignments around chunk and
// word edges — more workers than indexes included.
func TestFanOutCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097} {
		for _, workers := range []int{0, 1, 2, 3, 7, 8, 64, 5000} {
			for _, align := range []int{1, 64} {
				seen := make([]atomic.Int32, n)
				var chunks atomic.Int32
				ran := ForChunks(n, workers, align, func(w, start, end int) {
					chunks.Add(1)
					if w < 0 || w >= max(workers, 1) || start%align != 0 || start >= end || end > n {
						t.Errorf("n=%d workers=%d align=%d: chunk %d = [%d, %d)", n, workers, align, w, start, end)
						return
					}
					for i := start; i < end; i++ {
						seen[i].Add(1)
					}
				})
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("n=%d workers=%d align=%d: index %d visited %d times", n, workers, align, i, c)
					}
				}
				if c := int(chunks.Load()); c > max(workers, 1) || c != ran {
					t.Fatalf("n=%d workers=%d align=%d: %d chunks, %d reported", n, workers, align, c, ran)
				}
			}
		}
	}
}

// TestFanOutCountsBusy: while ForChunks' chunks run, each is one busy
// context for the daemon's load accountant; when it returns, none are.
func TestFanOutCountsBusy(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		running := make(chan struct{}, workers)
		release := make(chan struct{})
		done := make(chan int)
		go func() {
			done <- ForChunks(workers, workers, 1, func(_, _, _ int) {
				running <- struct{}{}
				<-release
			})
		}()
		for range workers {
			<-running
		}
		if got := cpu.Busy(); got != workers {
			t.Errorf("%d blocked chunks: busy count %d", workers, got)
		}
		close(release)
		if ran := <-done; ran != workers {
			t.Fatalf("ForChunks ran %d chunks, want %d", ran, workers)
		}
		if got := cpu.Busy(); got != 0 {
			t.Fatalf("busy count %d after ForChunks returned", got)
		}
	}
}

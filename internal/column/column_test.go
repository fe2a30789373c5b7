package column

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func seq(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}

func TestColumnBasics(t *testing.T) {
	c := New("a", seq(10))
	if c.Name() != "a" {
		t.Errorf("Name() = %q, want a", c.Name())
	}
	if c.Len() != 10 {
		t.Errorf("Len() = %d, want 10", c.Len())
	}
	if c.At(7) != 7 {
		t.Errorf("At(7) = %d, want 7", c.At(7))
	}
	if lo, hi := c.Bounds(); lo != 0 || hi != 9 {
		t.Errorf("Bounds() = (%d, %d), want (0, 9)", lo, hi)
	}
}

// TestColumnBoundsScanOnce: a column built knowing its bounds reports
// them without looking at its values, and concurrent first callers of an
// unbounded one agree on a single scan's answer — every later call
// returns it without touching the (here: since overwritten) values.
func TestColumnBoundsScanOnce(t *testing.T) {
	if lo, hi := NewBounded("a", []int64{4, -2, 9}, -100, 100).Bounds(); lo != -100 || hi != 100 {
		t.Fatalf("NewBounded column reports (%d, %d), want the bounds it was given", lo, hi)
	}
	if lo, hi := NewBounded("a", nil, 0, -1).Bounds(); lo != 0 || hi != -1 {
		t.Fatalf("empty bounded column reports (%d, %d), want (0, -1)", lo, hi)
	}
	vals := randVals(1<<16, 1000, 9)
	wantLo, wantHi := Bounds(vals)
	c := New("a", vals)
	var wg sync.WaitGroup
	got := make([][2]int64, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i][0], got[i][1] = c.Bounds()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != [2]int64{wantLo, wantHi} {
			t.Fatalf("caller %d saw bounds %v, want (%d, %d)", i, g, wantLo, wantHi)
		}
	}
	vals[0] = wantHi + 1000 // a rescan would now disagree
	if lo, hi := c.Bounds(); lo != wantLo || hi != wantHi {
		t.Fatalf("a later Bounds() = (%d, %d): the column was scanned again", lo, hi)
	}
}

func TestScanRange(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 3, 0}
	got := ScanRange(vals, 3, 8)
	want := PosList{0, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("ScanRange = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRange = %v, want %v", got, want)
		}
	}
}

func TestScanRangeEmptyAndFull(t *testing.T) {
	vals := seq(100)
	if got := ScanRange(vals, 200, 300); len(got) != 0 {
		t.Errorf("out-of-domain scan returned %d positions", len(got))
	}
	if got := ScanRange(vals, 50, 50); len(got) != 0 {
		t.Errorf("empty range scan returned %d positions", len(got))
	}
	if got := ScanRange(vals, 0, 100); len(got) != 100 {
		t.Errorf("full scan returned %d positions, want 100", len(got))
	}
}

func TestCountAndSumRange(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 3, 0}
	if n := CountRange(vals, 3, 8); n != 4 {
		t.Errorf("CountRange = %d, want 4", n)
	}
	if s := sumRange(vals, 3, 8); s != 5+3+7+3 {
		t.Errorf("SumRange = %d, want 18", s)
	}
}

func TestParallelKernelsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 100_000)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		lo, hi := int64(100), int64(700)
		if got, want := ParallelCountRange(vals, lo, hi, workers), CountRange(vals, lo, hi); got != want {
			t.Errorf("workers=%d: ParallelCountRange = %d, want %d", workers, got, want)
		}
		if got, want := ParallelSumRange(vals, lo, hi, workers), sumRange(vals, lo, hi); got != want {
			t.Errorf("workers=%d: ParallelSumRange = %d, want %d", workers, got, want)
		}
		got, want := ParallelScanRange(vals, lo, hi, workers), ScanRange(vals, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: ParallelScanRange len = %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: position %d differs: %d vs %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParallelKernelsSmallInput(t *testing.T) {
	vals := []int64{4, 2, 9}
	if n := ParallelCountRange(vals, 0, 5, 8); n != 2 {
		t.Errorf("ParallelCountRange on tiny input = %d, want 2", n)
	}
	if got := ParallelScanRange(vals, 0, 5, 8); len(got) != 2 {
		t.Errorf("ParallelScanRange on tiny input = %v", got)
	}
}

func TestFetchRows(t *testing.T) {
	src := []int64{10, 20, 30, 40}
	out := FetchRows(src, PosList{3, 0, 2})
	want := []int64{40, 10, 30}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("FetchRows = %v, want %v", out, want)
		}
	}
	if len(FetchRows(src, nil)) != 0 {
		t.Error("FetchRows with empty selection returned values")
	}
}

func TestQuickScanVsCount(t *testing.T) {
	check := func(vals []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		return len(ScanRange(vals, lo, hi)) == CountRange(vals, lo, hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParallelEqualsSequential(t *testing.T) {
	check := func(vals []int64, lo, hi int64, workers uint8) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		w := int(workers%8) + 1
		return ParallelCountRange(vals, lo, hi, w) == CountRange(vals, lo, hi) &&
			ParallelSumRange(vals, lo, hi, w) == sumRange(vals, lo, hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Encode("RAIL")
	b := d.Encode("SHIP")
	if a == b {
		t.Fatal("distinct strings got the same code")
	}
	if again := d.Encode("RAIL"); again != a {
		t.Errorf("re-encode changed code: %d vs %d", again, a)
	}
	if d.Decode(a) != "RAIL" || d.Decode(b) != "SHIP" {
		t.Error("Decode did not round-trip")
	}
	if d.Card() != 2 {
		t.Errorf("Card() = %d, want 2", d.Card())
	}
	if code, ok := d.Lookup("SHIP"); !ok || code != b {
		t.Errorf("Lookup(SHIP) = %d,%v; want %d,true", code, ok, b)
	}
	if _, ok := d.Lookup("AIR"); ok {
		t.Error("Lookup reported ok for absent string")
	}
	if got := d.Decode(99); got != "<bad code 99>" {
		t.Errorf("Decode(99) = %q", got)
	}
}

func TestDictConcurrentEncode(t *testing.T) {
	d := NewDict()
	done := make(chan map[string]int64, 8)
	words := []string{"a", "b", "c", "d", "e"}
	for g := 0; g < 8; g++ {
		go func() {
			local := map[string]int64{}
			for i := 0; i < 200; i++ {
				w := words[i%len(words)]
				local[w] = d.Encode(w)
			}
			done <- local
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		other := <-done
		for w, code := range first {
			if other[w] != code {
				t.Fatalf("goroutines disagree on code for %q: %d vs %d", w, code, other[w])
			}
		}
	}
	if d.Card() != len(words) {
		t.Errorf("Card() = %d, want %d", d.Card(), len(words))
	}
}

func BenchmarkScanRange1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountRange(vals, 1<<28, 1<<29)
	}
	b.SetBytes(int64(len(vals) * 8))
}

func BenchmarkParallelScanRange1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelCountRange(vals, 1<<28, 1<<29, 4)
	}
	b.SetBytes(int64(len(vals) * 8))
}

func TestFilterRows(t *testing.T) {
	vals := []int64{5, 1, 9, 3, 7, 2}
	sel := PosList{0, 2, 3, 5, 9} // 9 is out of range and must be dropped
	got := FilterRows(vals, sel, 3, 9)
	want := PosList{0, 3}
	if len(got) != len(want) {
		t.Fatalf("FilterRows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FilterRows = %v, want %v", got, want)
		}
	}
}

func TestParallelFilterAndFetchMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	sel := make(PosList, 0, len(vals))
	for i := 0; i < len(vals); i += 2 {
		sel = append(sel, Pos(i))
	}
	lo, hi := int64(1<<18), int64(1<<19)
	seqF := FilterRows(vals, sel, lo, hi)
	parF := ParallelFilterRows(vals, sel, lo, hi, 4)
	if len(seqF) != len(parF) {
		t.Fatalf("parallel filter length %d, sequential %d", len(parF), len(seqF))
	}
	for i := range seqF {
		if seqF[i] != parF[i] {
			t.Fatalf("filter mismatch at %d: %d vs %d", i, parF[i], seqF[i])
		}
	}
	seqG := FetchRows(vals, seqF)
	parG := gatherRows(nil, vals, seqF, 4)
	for i := range seqG {
		if seqG[i] != parG[i] {
			t.Fatalf("fetch mismatch at %d: %d vs %d", i, parG[i], seqG[i])
		}
	}
}

func TestViewOverlay(t *testing.T) {
	w := View{
		Base:    []int64{10, 20, 30, 40},
		Tail:    []int64{50, 60},
		Deleted: map[Pos]struct{}{1: {}, 4: {}}, // one base row, one tail row
		Updated: map[Pos]int64{2: 35},
	}
	cases := []struct {
		p  Pos
		v  int64
		ok bool
	}{
		{0, 10, true},
		{1, 0, false}, // deleted
		{2, 35, true}, // updated
		{3, 40, true},
		{4, 0, false}, // deleted tail row
		{5, 60, true}, // tail
		{6, 0, false}, // beyond tail
	}
	for _, c := range cases {
		v, ok := w.At(c.p)
		if ok != c.ok || (ok && v != c.v) {
			t.Errorf("At(%d) = (%d,%v), want (%d,%v)", c.p, v, ok, c.v, c.ok)
		}
	}

	sel := PosList{0, 1, 2, 3, 4, 5, 6}
	s := Selection{Rows: slices.Clone(sel)}
	w.Filter(&s, 30, 61, 2)
	if want := (PosList{2, 3, 5}); !slices.Equal(s.Rows, want) {
		t.Fatalf("View.Filter = %v, want %v", s.Rows, want)
	}

	s = Selection{Rows: slices.Clone(sel)}
	w.Present(&s)
	if want := (PosList{0, 2, 3, 5}); !slices.Equal(s.Rows, want) {
		t.Fatalf("View.Present = %v, want %v", s.Rows, want)
	}
	if vals, want := w.Fetch(&s, nil, 2), []int64{10, 35, 40, 60}; !slices.Equal(vals, want) {
		t.Fatalf("View.Fetch = %v, want %v", vals, want)
	}
}

func TestPlainViewFastPaths(t *testing.T) {
	w := View{Base: []int64{1, 2, 3}}
	if !w.Plain() {
		t.Fatal("base-only view is not plain")
	}
	sel := PosList{0, 1, 2, 3} // 3 beyond base: dropped everywhere
	s := Selection{Rows: slices.Clone(sel)}
	if w.Filter(&s, 2, 4, 1); !slices.Equal(s.Rows, PosList{1, 2}) {
		t.Fatalf("plain Filter = %v", s.Rows)
	}
	s = Selection{Rows: slices.Clone(sel)}
	if w.Present(&s); len(s.Rows) != 3 {
		t.Fatalf("plain Present = %v", s.Rows)
	}
	s = Selection{Rows: PosList{0, 2}}
	if w.Present(&s); len(s.Rows) != 2 {
		t.Fatalf("plain Present (all in range) = %v", s.Rows)
	}
}

package column

import (
	"math/rand"
	"sync"
	"testing"
)

// boundaryLens are the column lengths the differential tests sweep:
// empty, sub-word, exact words and non-multiple-of-64 tails.
var boundaryLens = []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4096}

func randVals(n int, domain int64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func posListEqual(a, b PosList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanRangeBitmapMatchesPosList: the bitmap select agrees with the
// scalar PosList oracle at every boundary length.
func TestScanRangeBitmapMatchesPosList(t *testing.T) {
	const domain = 1000
	for _, n := range boundaryLens {
		vals := randVals(n, domain, int64(n)+1)
		rng := rand.New(rand.NewSource(int64(n)))
		bm := NewBitmap(0)
		for q := 0; q < 20; q++ {
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain-lo) + 1
			want := ScanRange(vals, lo, hi)

			ScanRangeBitmap(vals, lo, hi, bm)
			if got := bm.Count(); got != len(want) {
				t.Fatalf("n=%d [%d,%d): Count = %d, want %d", n, lo, hi, got, len(want))
			}
			if got := bm.AppendPositions(nil); !posListEqual(got, want) {
				t.Fatalf("n=%d [%d,%d): positions %v, want %v", n, lo, hi, got, want)
			}

			ParallelScanRangeBitmap(vals, lo, hi, bm, 4)
			if got := bm.AppendPositions(nil); !posListEqual(got, want) {
				t.Fatalf("n=%d [%d,%d): parallel positions diverge", n, lo, hi)
			}
		}
	}
}

// TestFilterBitmapMatchesFilterRows: bitmap residual filtering agrees
// with the PosList probe kernel, including positions beyond the base
// array (dropped by both) and the dense branch-free word path.
func TestFilterBitmapMatchesFilterRows(t *testing.T) {
	const domain = 100 // small domain => dense words exercise the branch-free lane path
	for _, n := range boundaryLens {
		if n == 0 {
			continue
		}
		vals := randVals(n, domain, int64(n)+2)
		short := vals[:n-n/4] // probe array shorter than the universe
		rng := rand.New(rand.NewSource(int64(n) * 7))
		bm := NewBitmap(0)
		for q := 0; q < 20; q++ {
			dLo := rng.Int63n(domain)
			dHi := dLo + rng.Int63n(domain-dLo) + 1
			fLo := rng.Int63n(domain)
			fHi := fLo + rng.Int63n(domain-fLo) + 1
			for _, probe := range [][]int64{vals, short} {
				drive := ScanRange(vals, dLo, dHi)
				want := FilterRows(probe, drive, fLo, fHi)

				ScanRangeBitmap(vals, dLo, dHi, bm)
				FilterBitmap(probe, bm, fLo, fHi)
				if got := bm.AppendPositions(nil); !posListEqual(got, want) {
					t.Fatalf("n=%d drive[%d,%d) filter[%d,%d) len(probe)=%d: %v, want %v",
						n, dLo, dHi, fLo, fHi, len(probe), got, want)
				}

				ScanRangeBitmap(vals, dLo, dHi, bm)
				parallelFilterBitmap(probe, bm, fLo, fHi, 4)
				if got := bm.AppendPositions(nil); !posListEqual(got, want) {
					t.Fatalf("n=%d: parallel filter diverges", n)
				}

				if got := filterRows(nil, probe, drive, fLo, fHi); !posListEqual(got, want) {
					t.Fatalf("n=%d: filterRows into nil diverges", n)
				}
			}
		}
	}
}

// TestBitmapFetchSumMatchOracle: gather and fold over set bits agree
// with FetchRows/sumRows over the equivalent position list.
func TestBitmapFetchSumMatchOracle(t *testing.T) {
	vals := randVals(1000, 1<<20, 9)
	bm := NewBitmap(0)
	ScanRangeBitmap(vals, 1<<18, 1<<19, bm)
	sel := bm.AppendPositions(nil)

	wantVals := FetchRows(vals, sel)
	gotVals := gatherBits(nil, vals, bm.words)
	if len(gotVals) != len(wantVals) {
		t.Fatalf("fetch %d values, want %d", len(gotVals), len(wantVals))
	}
	for i := range gotVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("fetch[%d] = %d, want %d", i, gotVals[i], wantVals[i])
		}
	}
	if got, want := SumBitmap(vals, bm), sumRows(vals, sel); got != want {
		t.Fatalf("SumBitmap = %d, want %d", got, want)
	}
	if got, want := parallelSumRows(vals, sel, 4), sumRows(vals, sel); got != want {
		t.Fatalf("parallelSumRows = %d, want %d", got, want)
	}
}

// TestBitmapSetOps: Set/unset/Test/Any/clearFrom behave as their
// definitions say, across word boundaries.
func TestBitmapSetOps(t *testing.T) {
	a := NewBitmap(130)
	for _, p := range []Pos{0, 5, 63, 64, 129} {
		a.Set(p)
	}
	a.unset(5)
	a.clearFrom(64)
	if a.Count() != 2 || !a.Test(0) || !a.Test(63) || a.Test(5) || a.Test(64) || a.Test(129) {
		t.Fatalf("clearFrom(64): wrong survivors (count %d)", a.Count())
	}
	a.clearFrom(1000) // beyond Len: no-op
	if a.Count() != 2 {
		t.Fatalf("clearFrom beyond Len changed the bitmap")
	}
	if !a.Any() {
		t.Fatalf("Any on non-empty bitmap = false")
	}
	a.Reset(130)
	if a.Any() {
		t.Fatalf("Any on empty bitmap = true")
	}
	if a.Test(Pos(5000)) {
		t.Fatalf("Test beyond Len returned true")
	}
}

// TestBitmapSetRowsExtend: row ids at or beyond the sized universe grow
// the bitmap instead of corrupting memory (the adaptive select path's
// concurrent-insert hazard), preserving existing bits.
func TestBitmapSetRowsExtend(t *testing.T) {
	b := NewBitmap(64)
	b.Set(10)
	b.SetRowsExtend([]uint32{63, 64, 200})
	if b.Len() != 201 {
		t.Fatalf("Len = %d, want 201", b.Len())
	}
	for _, p := range []Pos{10, 63, 64, 200} {
		if !b.Test(p) {
			t.Fatalf("bit %d lost", p)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	// Within-range ids keep the plain path.
	b.SetRowsExtend([]uint32{0})
	if b.Len() != 201 || !b.Test(0) {
		t.Fatalf("in-range extend misbehaved")
	}
}

// TestViewBitmapWithOverlay: the overlay-aware bitmap filter, presence
// filter, sum and fetch agree with the PosList forms of the same View.
func TestViewBitmapWithOverlay(t *testing.T) {
	base := randVals(200, 1000, 11)
	v := View{
		Base:    base,
		Tail:    []int64{5, 500, 995},
		Deleted: map[Pos]struct{}{3: {}, 64: {}, 201: {}},
		Updated: map[Pos]int64{10: 123, 127: 456},
	}
	universe := len(base) + len(v.Tail)
	all := make(PosList, universe)
	for i := range all {
		all[i] = Pos(i)
	}
	bm := NewBitmap(universe)
	for i := 0; i < universe; i++ {
		bm.Set(Pos(i))
	}

	rows, dense := Selection{Rows: append(PosList(nil), all...)}, Selection{Bits: bm, Dense: true}
	v.Filter(&rows, 100, 600, 1)
	v.Filter(&dense, 100, 600, 1)
	wantSel := rows.Rows
	if got := bm.AppendPositions(nil); !posListEqual(got, wantSel) {
		t.Fatalf("View.Filter over bits: %v, want %v", got, wantSel)
	}
	v.Present(&dense) // filtered rows are present by construction: no-op
	if got := bm.AppendPositions(nil); !posListEqual(got, wantSel) {
		t.Fatalf("View.Present over bits dropped present rows")
	}
	wantVals := v.Fetch(&rows, nil, 1)
	var wantSum int64
	for _, val := range wantVals {
		wantSum += val
	}
	if got := v.Sum(&dense, 1); got != wantSum {
		t.Fatalf("View.Sum over bits = %d, want %d", got, wantSum)
	}
	if got := v.Sum(&rows, 1); got != wantSum {
		t.Fatalf("View.Sum over rows = %d, want %d", got, wantSum)
	}
	gotVals := v.Fetch(&dense, nil, 1)
	for i := range wantVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("View.Fetch over bits [%d] = %d, want %d", i, gotVals[i], wantVals[i])
		}
	}

	// Presence filter alone drops deletions and keeps the tail.
	bm2 := NewBitmap(universe + 5)
	for i := 0; i < universe+5; i++ {
		bm2.Set(Pos(i))
	}
	rows = Selection{Rows: append(append(PosList(nil), all...), Pos(universe), Pos(universe+4))}
	v.Present(&rows)
	v.Present(&Selection{Bits: bm2, Dense: true})
	if got := bm2.AppendPositions(nil); !posListEqual(got, rows.Rows) {
		t.Fatalf("View.Present over bits: %d present, want %d", len(got), len(rows.Rows))
	}
}

// TestRandomizedBitmapDifferential is the randomized end-to-end kernel
// check: scan → filter → count/fetch pipelines in both representations
// over random data, lengths and bounds.
func TestRandomizedBitmapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	bm := NewBitmap(0)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(3000)
		if trial < len(boundaryLens) {
			n = boundaryLens[trial]
		}
		domain := int64(1 + rng.Intn(2000))
		vals := randVals(n, domain, rng.Int63())
		other := randVals(n, domain, rng.Int63())
		lo1, hi1 := rng.Int63n(domain), rng.Int63n(domain)+1
		lo2, hi2 := rng.Int63n(domain), rng.Int63n(domain)+1

		want := FilterRows(other, ScanRange(vals, lo1, hi1), lo2, hi2)
		ScanRangeBitmap(vals, lo1, hi1, bm)
		FilterBitmap(other, bm, lo2, hi2)
		if bm.Count() != len(want) {
			t.Fatalf("trial %d (n=%d): count %d, want %d", trial, n, bm.Count(), len(want))
		}
		if got := bm.AppendPositions(nil); !posListEqual(got, want) {
			t.Fatalf("trial %d (n=%d): positions diverge", trial, n)
		}
		if got, want := SumBitmap(other, bm), sumRows(other, want); got != want {
			t.Fatalf("trial %d: sums diverge", trial)
		}
	}
}

// TestPooledBuffersConcurrent hammers the pooled scratch (bitmaps,
// position lists, worker lists) from concurrent goroutines; run under
// -race it proves reuse never crosses goroutines while in use.
func TestPooledBuffersConcurrent(t *testing.T) {
	const domain = 1 << 16
	vals := randVals(1<<15, domain, 77)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < 50; q++ {
				lo := rng.Int63n(domain)
				hi := lo + rng.Int63n(domain-lo) + 1
				want := CountRange(vals, lo, hi)

				bm := GetBitmap(len(vals))
				ParallelScanRangeBitmap(vals, lo, hi, bm, 4)
				parallelFilterBitmap(vals, bm, lo, hi, 4) // idempotent filter
				if got := bm.Count(); got != want {
					t.Errorf("goroutine %d: bitmap count %d, want %d", g, got, want)
				}
				sel := bm.AppendPositions(nil)
				if len(sel) != want {
					t.Errorf("goroutine %d: poslist len %d, want %d", g, len(sel), want)
				}
				sel = parallelFilterRows(sel[:0], vals, sel, lo, hi, 4)
				if len(sel) != want {
					t.Errorf("goroutine %d: in-place filter len %d, want %d", g, len(sel), want)
				}
				PutBitmap(bm)

				if got := len(ParallelScanRange(vals, lo, hi, 4)); got != want {
					t.Errorf("goroutine %d: ParallelScanRange len %d, want %d", g, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestZeroAllocBitmapPipeline: the sequential scan → filter → count
// pipeline over pooled scratch allocates nothing once warm.
func TestZeroAllocBitmapPipeline(t *testing.T) {
	vals := randVals(1<<14, 1<<20, 5)
	bm := GetBitmap(len(vals))
	defer PutBitmap(bm)
	allocs := testing.AllocsPerRun(100, func() {
		ScanRangeBitmap(vals, 1<<17, 1<<19, bm)
		FilterBitmap(vals, bm, 1<<17, 1<<18)
		if bm.Count() < 0 {
			t.Fatal("impossible")
		}
	})
	if allocs != 0 {
		t.Fatalf("bitmap pipeline allocates %.1f times per query, want 0", allocs)
	}
}

// TestSetRange covers the word-boundary cases of the contiguous-range
// fill: within one word, spanning words, aligned and unaligned edges.
func TestSetRange(t *testing.T) {
	for _, tc := range [][2]int{{0, 0}, {0, 1}, {3, 9}, {0, 64}, {63, 65}, {64, 128}, {5, 200}, {190, 200}, {0, 200}, {199, 200}} {
		b := NewBitmap(200)
		b.SetRange(tc[0], tc[1])
		for p := 0; p < 200; p++ {
			want := p >= tc[0] && p < tc[1]
			if b.Test(Pos(p)) != want {
				t.Fatalf("SetRange(%d, %d): bit %d = %v, want %v", tc[0], tc[1], p, b.Test(Pos(p)), want)
			}
		}
		if got, want := b.Count(), tc[1]-tc[0]; got != want {
			t.Fatalf("SetRange(%d, %d): count = %d, want %d", tc[0], tc[1], got, want)
		}
	}
	// Clamping: out-of-universe bounds are cut, inverted ranges are a no-op.
	b := NewBitmap(70)
	b.SetRange(-5, 1000)
	if b.Count() != 70 {
		t.Fatalf("clamped SetRange count = %d, want 70", b.Count())
	}
	b.Reset(70)
	b.SetRange(50, 20)
	if b.Count() != 0 {
		t.Fatal("inverted SetRange set bits")
	}
}

// TestAppendPositionsWords checks the chunked decode against the full
// decode over word sub-ranges.
func TestAppendPositionsWords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBitmap(1000)
	for i := 0; i < 1000; i++ {
		if rng.Intn(3) == 0 {
			b.Set(Pos(i))
		}
	}
	full := b.AppendPositions(nil)
	var chunked PosList
	for w := 0; w < b.Words(); w += 3 {
		chunked = b.AppendPositionsWords(chunked, w, w+3)
	}
	if len(chunked) != len(full) {
		t.Fatalf("chunked decode has %d positions, full %d", len(chunked), len(full))
	}
	for i := range full {
		if chunked[i] != full[i] {
			t.Fatalf("position %d: %d vs %d", i, chunked[i], full[i])
		}
	}
	// Out-of-range word bounds clamp.
	if got := b.AppendPositionsWords(nil, -2, b.Words()+5); len(got) != len(full) {
		t.Fatalf("clamped decode has %d positions, want %d", len(got), len(full))
	}
	if got := b.AppendPositionsWords(nil, 5, 5); len(got) != 0 {
		t.Fatal("empty word range decoded positions")
	}
}

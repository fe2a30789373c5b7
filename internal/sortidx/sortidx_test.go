package sortidx

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"holistic/internal/column"
)

func randVals(n int, seed int64, domain int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func TestBuildSortsValues(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		base := randVals(50_000, int64(workers), 1<<30)
		s := Build("a", base, workers)
		if s.Len() != len(base) {
			t.Fatalf("workers=%d: Len() = %d, want %d", workers, s.Len(), len(base))
		}
		vals := s.Values()
		if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("workers=%d: result not sorted", workers)
		}
		// Must be a permutation: compare against stdlib sort.
		want := append([]int64(nil), base...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("workers=%d: value %d differs: %d vs %d", workers, i, vals[i], want[i])
			}
		}
	}
}

func TestBuildSmallAndEmpty(t *testing.T) {
	s := Build("a", nil, 4)
	if s.Len() != 0 {
		t.Errorf("empty build Len() = %d", s.Len())
	}
	if start, end := s.SelectRange(0, 10); start != 0 || end != 0 {
		t.Errorf("select on empty = [%d,%d)", start, end)
	}
	s2 := Build("a", []int64{3, 1, 2}, 8)
	if got := s2.Values(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("small build = %v", got)
	}
}

// TestBuildRowsAlignment covers both ways the rowids travel through the
// sort: inside the value's word when the values span less than 2^32 (at
// either end of int64 too), as pairs when they do not.
func TestBuildRowsAlignment(t *testing.T) {
	shift := func(base []int64, by int64) []int64 {
		out := make([]int64, len(base))
		for i, v := range base {
			out[i] = v + by
		}
		return out
	}
	narrow := randVals(30_000, 7, 1000)
	for name, base := range map[string][]int64{
		"narrow":           narrow,
		"just under 2^32":  append(randVals(10_000, 8, 1<<32-1), 0, 1<<32-1),
		"exactly 2^32":     append(randVals(10_000, 8, 1<<32), 0, 1<<32),
		"bottom of int64":  shift(narrow, math.MinInt64),
		"top of int64":     shift(narrow, math.MaxInt64-999),
		"the whole domain": append(randVals(10_000, 9, 1<<62), math.MinInt64, math.MaxInt64),
		"one value":        {42},
	} {
		for _, workers := range []int{1, 4} {
			s := Build("a", base, workers)
			vals := s.Values()
			if len(vals) != len(base) || !slices.IsSorted(vals) {
				t.Fatalf("%s, %d workers: %d values out of %d, sorted %v", name, workers, len(vals), len(base), slices.IsSorted(vals))
			}
			seen := make([]bool, len(base))
			for i, r := range s.Rows(0, s.Len()) {
				if base[r] != vals[i] || seen[r] {
					t.Fatalf("%s, %d workers: row %d (seen before: %v) is base value %d but sorted value %d", name, workers, r, seen[r], base[r], vals[i])
				}
				seen[r] = true
			}
		}
	}
}

func TestSelectRangeMatchesScan(t *testing.T) {
	base := randVals(20_000, 9, 10_000)
	s := Build("a", base, 4)
	rng := rand.New(rand.NewSource(10))
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(10_000)
		hi := lo + rng.Int63n(10_000-lo) + 1
		if got, want := s.CountRange(lo, hi), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("[%d,%d): CountRange = %d, want %d", lo, hi, got, want)
		}
		if got, want := s.SumRange(lo, hi), column.ParallelSumRange(base, lo, hi, 1); got != want {
			t.Fatalf("[%d,%d): SumRange = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestSelectRangeBoundaries(t *testing.T) {
	s := Build("a", []int64{10, 20, 20, 30}, 1)
	cases := []struct {
		lo, hi     int64
		start, end int
	}{
		{0, 5, 0, 0},    // below domain
		{0, 15, 0, 1},   // includes 10
		{20, 21, 1, 3},  // duplicates
		{10, 31, 0, 4},  // everything
		{31, 100, 4, 4}, // above domain
		{20, 20, 1, 1},  // empty range
		{25, 15, 3, 3},  // inverted range: empty, end never below start
	}
	for _, c := range cases {
		start, end := s.SelectRange(c.lo, c.hi)
		if start != c.start || end != c.end {
			t.Errorf("SelectRange(%d,%d) = [%d,%d), want [%d,%d)", c.lo, c.hi, start, end, c.start, c.end)
		}
	}
}

func TestQuickParallelSortMatchesStdlib(t *testing.T) {
	check := func(vals []int64, workers uint8) bool {
		w := int(workers%9) + 1
		s := Build("q", vals, w)
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := s.Values()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLargeParallelSort(t *testing.T) {
	check := func(seed int64, workers uint8) bool {
		w := int(workers%8) + 1
		base := randVals(10_000+int(seed%5000+5000)%5000, seed, 1<<40)
		s := Build("q", base, w)
		vals := s.Values()
		return sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) &&
			len(vals) == len(base)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := Build("a", make([]int64, 10), 1).SizeBytes(); got != 120 {
		t.Errorf("SizeBytes = %d, want 120: 8 B per value and 4 per row id", got)
	}
}

func BenchmarkParallelSort1M(b *testing.B) {
	base := randVals(1<<20, 1, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build("a", base, 4)
	}
}

func BenchmarkBinarySearchSelect(b *testing.B) {
	s := Build("a", randVals(1<<20, 1, 1<<30), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountRange(1<<28, 1<<29)
	}
}

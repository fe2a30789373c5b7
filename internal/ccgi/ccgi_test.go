package ccgi

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"holistic/internal/column"
	"holistic/internal/cracking"
)

func randVals(n int, seed int64, domain int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func TestSelectCountMatchesScan(t *testing.T) {
	base := randVals(50_000, 1, 1<<20)
	x := New("a", base, 4, 16, cracking.Config{})
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		if got, want := x.SelectCount(lo, hi), column.CountRange(base, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): got %d, want %d", q, lo, hi, got, want)
		}
	}
}

// TestSelectSegmentsMatchesScan: the segment walk hands out exactly the
// qualifying tuples, rowids shifted by the chunk offset, and announces
// their total with every segment.
func TestSelectSegmentsMatchesScan(t *testing.T) {
	base := randVals(20_000, 8, 1<<16)
	x := New("a", base, 3, 8, cracking.Config{WithRows: true})
	if !x.HasRows() {
		t.Fatal("HasRows false for a WithRows index")
	}
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1 << 16)
		hi := lo + rng.Int63n(1<<16-lo) + 1
		want := column.CountRange(base, lo, hi)
		seen := make(map[uint32]bool)
		x.SelectSegments(lo, hi, func(total int, off uint32, s cracking.Segment) {
			if total != want {
				t.Fatalf("query %d: segment announces %d tuples, want %d", q, total, want)
			}
			for i := 0; i < s.Len(); i++ {
				v, row := s.Value(i), off+s.Row(i)
				if v < lo || v >= hi || base[row] != v || seen[row] {
					t.Fatalf("query %d: bad tuple (row %d, value %d) for [%d,%d)", q, row, v, lo, hi)
				}
				seen[row] = true
			}
		})
		if len(seen) != want {
			t.Fatalf("query %d [%d,%d): walked %d tuples, want %d", q, lo, hi, len(seen), want)
		}
	}
	if New("a", base, 2, 0, cracking.Config{}).HasRows() {
		t.Error("HasRows true for an index built without rowids")
	}
}

func TestChunking(t *testing.T) {
	base := randVals(10_000, 3, 1000)
	x := New("a", base, 4, 0, cracking.Config{})
	if len(x.chunks) != 4 {
		t.Errorf("%d chunks, want 4", len(x.chunks))
	}
	// Uneven split.
	x2 := New("a", randVals(10, 4, 100), 3, 0, cracking.Config{})
	if len(x2.chunks) != 3 {
		t.Errorf("%d chunks, want 3", len(x2.chunks))
	}
	// More threads than values.
	x3 := New("a", []int64{1, 2}, 8, 0, cracking.Config{})
	if got := x3.SelectCount(0, 10); got != 2 {
		t.Errorf("tiny column count = %d, want 2", got)
	}
	// Empty column.
	x4 := New("a", nil, 4, 8, cracking.Config{})
	if got := x4.SelectCount(0, 10); got != 0 {
		t.Errorf("empty column count = %d", got)
	}
}

func TestPrePartitionPaidByFirstQuery(t *testing.T) {
	base := randVals(50_000, 5, 1<<20)
	x := New("a", base, 2, 32, cracking.Config{})
	if got := x.Pieces(); got != 2 {
		t.Fatalf("pieces before first query = %d, want 2 (one per chunk)", got)
	}
	x.SelectCount(100, 200)
	// After the first query each chunk has ~32 bucket boundaries plus the
	// query's own cracks.
	if got := x.Pieces(); got < 2*30 {
		t.Fatalf("pieces after first query = %d, want >= 60 (coarse partitioning)", got)
	}
	before := x.Pieces()
	x.SelectCount(500, 600)
	after := x.Pieces()
	if after-before > 8 {
		t.Errorf("second query added %d pieces; pre-partitioning should not rerun", after-before)
	}
}

func TestConsolidationOncePerRange(t *testing.T) {
	base := randVals(50_000, 6, 1<<20)
	x := New("a", base, 4, 0, cracking.Config{})
	x.SelectCount(1000, 2000)
	if len(x.consolidated) != 1 {
		t.Fatalf("first query consolidated %d ranges, want 1", len(x.consolidated))
	}
	x.SelectCount(1000, 2000)
	if len(x.consolidated) != 1 {
		t.Errorf("repeated range re-consolidated: %d ranges", len(x.consolidated))
	}
	x.SelectCount(5000, 9000)
	if len(x.consolidated) != 2 {
		t.Errorf("new range did not consolidate: %d ranges", len(x.consolidated))
	}
}

func TestConcurrentQueries(t *testing.T) {
	base := randVals(50_000, 7, 1<<20)
	x := New("a", base, 2, 8, cracking.Config{})
	var wg sync.WaitGroup
	fail := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < 50; q++ {
				lo := rng.Int63n(1 << 20)
				hi := lo + rng.Int63n(1<<20-lo) + 1
				if x.SelectCount(lo, hi) != column.CountRange(base, lo, hi) {
					fail <- "mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for f := range fail {
		t.Fatal(f)
	}
}

func TestQuickCCGIMatchesScan(t *testing.T) {
	check := func(seed int64, threads, buckets uint8, bounds []uint16) bool {
		base := randVals(2000, seed, 1<<16)
		x := New("q", base, int(threads%4)+1, int(buckets%8), cracking.Config{})
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, hi := int64(bounds[i]), int64(bounds[i+1])
			if lo > hi {
				lo, hi = hi, lo
			}
			if x.SelectCount(lo, hi) != column.CountRange(base, lo, hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

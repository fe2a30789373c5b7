package cracking

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"holistic/internal/column"
)

// TestConcurrentQueriesSingleColumn races many goroutines issuing range
// selects against one cracker column and verifies every result count
// against a scan of the immutable base data. This exercises the piece
// latch protocol of Figure 3 (user-query side).
func TestConcurrentQueriesSingleColumn(t *testing.T) {
	base := randVals(100_000, 31, 1<<20)
	c := New("a", base, Config{})
	const goroutines = 8
	const queriesPer = 50
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < queriesPer; q++ {
				lo := rng.Int63n(1 << 20)
				hi := lo + rng.Int63n(1<<20-lo) + 1
				got := c.SelectRange(lo, hi).Count()
				want := column.CountRange(base, lo, hi)
				if got != want {
					errs <- "count mismatch under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueriesRaceHolisticRefinement runs user queries concurrently with
// background refinement workers using try-latch semantics, the core
// concurrency scenario of holistic indexing (Figure 3).
func TestQueriesRaceHolisticRefinement(t *testing.T) {
	base := randVals(200_000, 32, 1<<20)
	c := New("a", base, Config{})
	stop := make(chan struct{})
	var refined, busy atomic.Int64
	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pivot := rng.Int63n(1 << 20)
				switch c.TryRefineAt(pivot, 64) {
				case RefineDone:
					refined.Add(1)
				case RefineBusy:
					busy.Add(1)
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 300; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		got := c.SelectRange(lo, hi).Count()
		want := column.CountRange(base, lo, hi)
		if got != want {
			close(stop)
			workers.Wait()
			t.Fatalf("query %d [%d,%d): got %d, want %d with workers racing", q, lo, hi, got, want)
		}
	}
	close(stop)
	workers.Wait()
	if refined.Load() == 0 {
		t.Error("background workers never refined anything")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("workers refined %d pieces (%d busy re-rolls), column has %d pieces",
		refined.Load(), busy.Load(), c.Pieces())
}

// TestConcurrentMaterializeStableResults checks that materialization under
// piece read latches returns exactly the qualifying multiset even while
// other goroutines crack the column.
func TestConcurrentMaterializeStableResults(t *testing.T) {
	base := randVals(100_000, 33, 1<<20)
	c := New("a", base, Config{})
	stop := make(chan struct{})
	var crackers sync.WaitGroup
	for w := 0; w < 2; w++ {
		crackers.Add(1)
		go func(w int) {
			defer crackers.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.TryRefineAt(rng.Int63n(1<<20), 16)
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		_, vals := selectValues(c, lo, hi)
		want := column.CountRange(base, lo, hi)
		if len(vals) != want {
			close(stop)
			crackers.Wait()
			t.Fatalf("materialized %d values, want %d", len(vals), want)
		}
		for _, v := range vals {
			if v < lo || v >= hi {
				close(stop)
				crackers.Wait()
				t.Fatalf("materialized out-of-range value %d not in [%d,%d)", v, lo, hi)
			}
		}
	}
	close(stop)
	crackers.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCrackersManyColumns simulates the multi-column index space:
// queries and refiners hammer several columns concurrently.
func TestConcurrentCrackersManyColumns(t *testing.T) {
	const nCols = 4
	bases := make([][]int64, nCols)
	cols := make([]*Column, nCols)
	for i := range cols {
		bases[i] = randVals(30_000, int64(40+i), 1<<16)
		cols[i] = New("c", bases[i], Config{})
	}
	var wg sync.WaitGroup
	fail := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g * 31)))
			for q := 0; q < 60; q++ {
				i := rng.Intn(nCols)
				lo := rng.Int63n(1 << 16)
				hi := lo + rng.Int63n(1<<16-lo) + 1
				if g%2 == 0 {
					if cols[i].SelectRange(lo, hi).Count() != column.CountRange(bases[i], lo, hi) {
						fail <- "mismatch"
						return
					}
				} else {
					cols[i].TryRefineAt(lo, 32)
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for f := range fail {
		t.Fatal(f)
	}
	for i, c := range cols {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("column %d: %v", i, err)
		}
	}
}

package updates

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

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

func TestAddAndLen(t *testing.T) {
	p := NewPending()
	if p.Len() != 0 {
		t.Errorf("fresh Len() = %d", p.Len())
	}
	p.AddInsert(5, 1)
	p.AddDelete(7)
	p.AddUpdate(3, 9, 2)
	if p.Len() != 4 {
		t.Errorf("Len() = %d, want 4 (update counts as delete+insert)", p.Len())
	}
}

func TestMergeRangeOnlyTouchesRange(t *testing.T) {
	base := randVals(10_000, 1, 1000)
	c := cracking.New("a", base, cracking.Config{})
	c.CrackAt(500)
	p := NewPending()
	p.AddInsert(100, 0)
	p.AddInsert(900, 0)
	merged := p.MergeRange(c, 0, 500)
	if merged != 1 {
		t.Fatalf("merged %d ops, want 1", merged)
	}
	if p.Len() != 1 {
		t.Fatalf("Len() = %d after partial merge, want 1", p.Len())
	}
	if got := c.SelectRange(100, 101).Count(); got != column.CountRange(base, 100, 101)+1 {
		t.Error("merged insert not visible")
	}
	if got := c.SelectRange(900, 901).Count(); got != column.CountRange(base, 900, 901) {
		t.Error("out-of-range insert leaked into the column")
	}
	if p.MergeRange(c, 500, 900)+p.MergeRange(c, 901, 2000)+p.MergeRange(c, 900, 900) != 0 {
		t.Error("MergeRange matched outside [lo, hi): the upper bound is exclusive")
	}
}

func TestMergeAllAppliesInOrder(t *testing.T) {
	base := []int64{10, 20, 30}
	c := cracking.New("a", base, cracking.Config{})
	p := NewPending()
	p.AddInsert(25, 3)
	p.AddDelete(25) // deletes the value just inserted
	p.AddInsert(25, 4)
	if n := p.MergeAll(c); n != 3 {
		t.Fatalf("MergeAll = %d, want 3", n)
	}
	if got := c.SelectRange(25, 26).Count(); got != 1 {
		t.Fatalf("count of 25 = %d, want 1 (insert, delete, insert)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergePreservesQueryCorrectness(t *testing.T) {
	base := randVals(20_000, 2, 1000)
	c := cracking.New("a", base, cracking.Config{})
	p := NewPending()
	live := append([]int64(nil), base...)
	rng := rand.New(rand.NewSource(3))

	for i := 0; i < 50; i++ {
		// Interleave queries with update arrivals; queries merge their
		// range before selecting, as the engine does.
		v := rng.Int63n(1000)
		p.AddInsert(v, 0)
		live = append(live, v)

		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(1000-lo) + 1
		p.MergeRange(c, lo, hi)
		got := c.SelectRange(lo, hi).Count()
		want := column.CountRange(live, lo, hi)
		if got != want {
			t.Fatalf("query %d [%d,%d): got %d, want %d", i, lo, hi, got, want)
		}
	}
	p.MergeAll(c)
	snap := c.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	for i := range live {
		if snap[i] != live[i] {
			t.Fatal("final column diverged from reference")
		}
	}
}

func TestConcurrentMergersAndWriters(t *testing.T) {
	base := randVals(10_000, 4, 1000)
	c := cracking.New("a", base, cracking.Config{})
	c.CrackAt(500)
	p := NewPending()
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				p.AddInsert(rng.Int63n(1000), 0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 50; i++ {
			lo := rng.Int63n(1000)
			p.MergeRange(c, lo, lo+100)
		}
	}()
	wg.Wait()
	p.MergeAll(c)
	if c.Len() != len(base)+writers*perWriter {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(base)+writers*perWriter)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeValueTakesExactlyOneValue: only the operations on v merge, in
// arrival order, and math.MaxInt64 — which [v, v+1) cannot name — is a
// value like any other.
func TestMergeValueTakesExactlyOneValue(t *testing.T) {
	c := cracking.New("a", []int64{10, 20, 30}, cracking.Config{})
	p := NewPending()
	p.AddInsert(math.MaxInt64, 3)
	p.AddInsert(20, 4)
	p.AddDeleteRow(math.MaxInt64, 3)
	p.AddInsert(math.MaxInt64, 5)
	p.AddInsert(math.MaxInt64-1, 6)
	if n := p.MergeValue(c, math.MaxInt64); n != 3 {
		t.Fatalf("MergeValue(MaxInt64) = %d, want 3", n)
	}
	if row, ok := c.LowestRow(math.MaxInt64); !ok || row != 5 {
		t.Fatalf("MaxInt64 sits in row (%d, %v), want row 5 (insert 3, delete 3, insert 5)", row, ok)
	}
	if p.Len() != 2 || c.Len() != 4 {
		t.Fatalf("%d operations pending, %d tuples, want 2 and 4", p.Len(), c.Len())
	}
	if n := p.MergeRange(c, math.MaxInt64-1, math.MaxInt64); n != 1 {
		t.Fatalf("MergeRange up to MaxInt64 = %d, want 1", n)
	}
	if n := p.MergeValue(c, 21); n != 0 || p.Len() != 1 {
		t.Fatalf("MergeValue of a value nothing names = %d, %d pending", n, p.Len())
	}
}

// TestMergeWithoutMatchAllocatesNothing: the check every read and write
// makes costs one pass over the queue and no memory when nothing is in
// range; a batch that does merge reuses the last one's scratch.
func TestMergeWithoutMatchAllocatesNothing(t *testing.T) {
	c := cracking.New("a", randVals(1000, 5, 1000), cracking.Config{})
	p := NewPending()
	for i := 0; i < 64; i++ {
		p.AddInsert(int64(2000+i), uint32(1000+i))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if p.MergeRange(c, 0, 1000)+p.MergeValue(c, 1999)+p.MergeRange(c, 5, 5) != 0 {
			t.Fatal("merged an operation out of range")
		}
	}); avg != 0 {
		t.Fatalf("a merge with nothing in range allocates %.1f times", avg)
	}
}

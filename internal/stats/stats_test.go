package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"holistic/internal/cracking"
	"holistic/internal/updates"
)

func col(t *testing.T, n int, seed int64) *cracking.Column {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
	}
	return cracking.New("c", vals, cracking.Config{})
}

func TestAddAndStates(t *testing.T) {
	r := NewRegistry(0, 1)
	a := r.Add("a", col(t, 1000, 1), nil, false)
	p := r.Add("p", col(t, 1000, 2), nil, true)
	if a.State() != Actual {
		t.Errorf("a state = %v, want Actual", a.State())
	}
	if p.State() != Potential {
		t.Errorf("p state = %v, want Potential", p.State())
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d, want 2", r.Len())
	}
	// Re-add returns the existing entry.
	if again := r.Add("a", col(t, 10, 3), nil, false); again != a {
		t.Error("re-Add created a new entry")
	}
}

func TestRecordAccessPromotesPotential(t *testing.T) {
	r := NewRegistry(0, 1)
	r.Add("p", col(t, 1000, 1), nil, true)
	r.Get("p").RecordAccess(false)
	e := r.Get("p")
	if e.State() != Actual {
		t.Errorf("state after access = %v, want Actual", e.State())
	}
	if e.Accesses() != 1 || e.Hits() != 0 {
		t.Errorf("counters = %d/%d, want 1/0", e.Accesses(), e.Hits())
	}
	r.Get("p").RecordAccess(true)
	if e.Accesses() != 2 || e.Hits() != 1 {
		t.Errorf("counters = %d/%d, want 2/1", e.Accesses(), e.Hits())
	}
}

func TestAddCarriesPending(t *testing.T) {
	r := NewRegistry(0, 1)
	pend := updates.NewPending()
	e := r.Add("a", col(t, 100, 1), pend, false)
	if e.Pend != pend {
		t.Fatal("entry does not carry the queue it was added with")
	}
	// Re-adding keeps the queue the index was built with.
	if again := r.Add("a", col(t, 100, 2), updates.NewPending(), false); again.Pend != pend {
		t.Error("re-Add replaced the entry's queue")
	}
	// A read-only index has no queue.
	if ro := r.Add("ro", col(t, 100, 3), nil, false); ro.Pend != nil {
		t.Error("read-only entry carries a queue")
	}
}

func TestRecordAccessConcurrent(t *testing.T) {
	r := NewRegistry(0, 1)
	e := r.Add("p", col(t, 1000, 1), nil, true)
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.RecordAccess(i%2 == 0)
			}
		}()
	}
	wg.Wait()
	if e.Accesses() != workers*each || e.Hits() != workers*each/2 {
		t.Errorf("counters = %d/%d, want %d/%d", e.Accesses(), e.Hits(), workers*each, workers*each/2)
	}
	if e.State() != Actual {
		t.Errorf("state = %v, want Actual", e.State())
	}
}

func TestRecordAccessTakesNoRegistryLock(t *testing.T) {
	r := NewRegistry(0, 1)
	e := r.Add("a", col(t, 1000, 1), nil, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.RecordAccess(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RecordAccess blocked on the registry lock")
	}
	if e.Accesses() != 1 || e.Hits() != 1 {
		t.Errorf("counters = %d/%d, want 1/1", e.Accesses(), e.Hits())
	}
}

// TestRecordRefinedTotals: a new entry has invested nothing; each worker
// activation adds its wall time, a fruitless one too, and its
// refinements, while the select's access record and a recovered index's
// restored counts leave the investment alone.
func TestRecordRefinedTotals(t *testing.T) {
	r := NewRegistry(0, 1)
	e := r.Add("a", col(t, 1000, 1), nil, false)
	if e.InvestedNS() != 0 || e.Refinements() != 0 {
		t.Fatalf("new entry invested %d ns in %d refinements, want none", e.InvestedNS(), e.Refinements())
	}
	e.RecordRefined(2000, 4)
	e.RecordRefined(3000, 2)
	e.RecordRefined(500, 0) // an activation that refined nothing still spent its time
	e.RecordAccess(true)
	e.RestoreCounts(7, 3, Actual)
	if e.InvestedNS() != 5500 || e.Refinements() != 6 {
		t.Errorf("invested %d ns in %d refinements, want 5500 ns in 6", e.InvestedNS(), e.Refinements())
	}
	if e.Accesses() != 7 || e.Hits() != 3 {
		t.Errorf("counters = %d/%d, want the restored 7/3", e.Accesses(), e.Hits())
	}
}

// TestLedgerConcurrentRecording is the -race check of one entry's
// counters: daemon workers record activations and queries their accesses
// while a reader polls the investment; no record may be lost, and the
// reader never sees a total go back.
func TestLedgerConcurrentRecording(t *testing.T) {
	e := NewRegistry(0, 1).Add("a", col(t, 1000, 1), nil, false)
	const writers, perG = 8, 5000
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := e.InvestedNS()
			if n < last {
				t.Errorf("invested went back from %d to %d ns", last, n)
				return
			}
			last = n
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e.RecordRefined(10, 1)
				e.RecordAccess(false)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if e.InvestedNS() != writers*perG*10 || e.Refinements() != writers*perG || e.Accesses() != writers*perG {
		t.Fatalf("lost records: invested %d ns, %d refinements, fI %d; want %d, %d, %d",
			e.InvestedNS(), e.Refinements(), e.Accesses(), writers*perG*10, writers*perG, writers*perG)
	}
}

// TestRecordingAllocationFree gates both of an entry's recording paths,
// the select's access record and the worker activation's investment, at
// 0 allocs/op.
func TestRecordingAllocationFree(t *testing.T) {
	e := NewRegistry(0, 1).Add("a", col(t, 1000, 1), nil, false)
	if a := testing.AllocsPerRun(200, func() {
		e.RecordAccess(false)
		e.RecordRefined(17, 1)
	}); a > 0 {
		t.Fatalf("entry recording allocates %.1f times per op, want 0", a)
	}
}

// TestRebuiltIndexStartsFromZero: the investment lives on the entry, so
// an index evicted from the space and built again reports none of what
// the daemon put into the one it replaces.
func TestRebuiltIndexStartsFromZero(t *testing.T) {
	r := NewRegistry(0, 1)
	old := r.Add("a", col(t, 1000, 1), nil, false)
	old.RecordRefined(4000, 3)
	if v := r.EvictLFU(); v != old {
		t.Fatalf("evicted %v, want the only index", v)
	}
	e := r.Add("a", col(t, 1000, 1), nil, false)
	if e == old || e.InvestedNS() != 0 || e.Refinements() != 0 {
		t.Fatalf("rebuilt index invested %d ns in %d refinements, want a fresh entry at 0", e.InvestedNS(), e.Refinements())
	}
	if old.InvestedNS() != 4000 || old.Refinements() != 3 {
		t.Errorf("evicted entry now holds %d ns in %d refinements, want 4000 in 3", old.InvestedNS(), old.Refinements())
	}
}

func TestDistanceAndInitialWeight(t *testing.T) {
	r := NewRegistry(4096, 1)
	e := r.Add("a", col(t, 100_000, 1), nil, false)
	// One piece: |p| = N, so d = N - L1s (the paper's initial weight).
	if d := r.Distance(e); d != 100_000-4096 {
		t.Errorf("Distance = %f, want %d", d, 100_000-4096)
	}
	// Small column below L1: clamped to 0.
	small := r.Add("s", col(t, 100, 2), nil, false)
	if d := r.Distance(small); d != 0 {
		t.Errorf("Distance of small column = %f, want 0", d)
	}
}

func TestWeightsPerStrategy(t *testing.T) {
	r := NewRegistry(4096, 1)
	e := r.Add("a", col(t, 50_000, 1), nil, false)
	r.Get("a").RecordAccess(false)
	r.Get("a").RecordAccess(false)
	r.Get("a").RecordAccess(true)
	d := r.Distance(e)
	if w := r.Weight(e, W1); w != d {
		t.Errorf("W1 = %f, want %f", w, d)
	}
	if w := r.Weight(e, W2); w != 3*d {
		t.Errorf("W2 = %f, want %f", w, 3*d)
	}
	if w := r.Weight(e, W3); w != 2*d {
		t.Errorf("W3 = %f, want %f", w, 2*d)
	}
	if w := r.Weight(e, W4); w != d {
		t.Errorf("W4 weight = %f, want distance %f", w, d)
	}
}

func TestPickForRefinementMaxWeight(t *testing.T) {
	r := NewRegistry(64, 1)
	big := r.Add("big", col(t, 50_000, 1), nil, false)
	r.Add("small", col(t, 5_000, 2), nil, false)
	for _, s := range []Strategy{W1, W2, W3} {
		r.Get("big").RecordAccess(false)
		r.Get("small").RecordAccess(false)
		if got := r.PickForRefinement(s); got != big {
			t.Errorf("%v picked %s, want big", s, got.Name)
		}
	}
}

func TestPickForRefinementW2PrefersFrequent(t *testing.T) {
	r := NewRegistry(64, 1)
	r.Add("cold", col(t, 50_000, 1), nil, false)
	hot := r.Add("hot", col(t, 50_000, 2), nil, false)
	for i := 0; i < 10; i++ {
		r.Get("hot").RecordAccess(false)
	}
	r.Get("cold").RecordAccess(false)
	if got := r.PickForRefinement(W2); got != hot {
		t.Errorf("W2 picked %s, want hot", got.Name)
	}
}

func TestPickForRefinementW3DiscountsHits(t *testing.T) {
	r := NewRegistry(64, 1)
	hits := r.Add("hits", col(t, 50_000, 1), nil, false)
	miss := r.Add("miss", col(t, 50_000, 2), nil, false)
	_ = hits
	for i := 0; i < 10; i++ {
		r.Get("hits").RecordAccess(true) // always exact hits
		r.Get("miss").RecordAccess(false)
	}
	if got := r.PickForRefinement(W3); got != miss {
		t.Errorf("W3 picked %s, want miss", got.Name)
	}
}

func TestPickFallsBackToPotential(t *testing.T) {
	r := NewRegistry(64, 1)
	p := r.Add("p", col(t, 50_000, 1), nil, true)
	for _, s := range []Strategy{W1, W2, W3, W4} {
		if got := r.PickForRefinement(s); got != p {
			t.Errorf("%v did not fall back to potential", s)
		}
	}
}

func TestPickSkipsOptimal(t *testing.T) {
	r := NewRegistry(1<<20, 1) // enormous L1 => everything optimal immediately
	e := r.Add("a", col(t, 1000, 1), nil, false)
	if !r.MarkOptimalIfDone(e) {
		t.Fatal("entry with zero distance not marked optimal")
	}
	if got := r.PickForRefinement(W4); got != nil {
		t.Errorf("picked %s from an all-optimal space", got.Name)
	}
}

func TestMarkOptimalIfDoneRequiresZeroDistance(t *testing.T) {
	r := NewRegistry(64, 1)
	e := r.Add("a", col(t, 100_000, 1), nil, false)
	if r.MarkOptimalIfDone(e) {
		t.Error("entry with large distance marked optimal")
	}
	if e.State() != Actual {
		t.Errorf("state = %v, want Actual", e.State())
	}
}

func TestEvictLFU(t *testing.T) {
	r := NewRegistry(64, 1)
	r.Add("used", col(t, 1000, 1), nil, false)
	r.Add("unused", col(t, 1000, 2), nil, false)
	for i := 0; i < 5; i++ {
		r.Get("used").RecordAccess(false)
	}
	victim := r.EvictLFU()
	if victim == nil || victim.Name != "unused" {
		t.Fatalf("EvictLFU = %v, want unused", victim)
	}
	if r.Len() != 1 {
		t.Errorf("Len() = %d after eviction, want 1", r.Len())
	}
	// Tie break by name.
	r.Add("b", col(t, 10, 3), nil, false)
	r.Add("a", col(t, 10, 4), nil, false)
	if v := r.EvictLFU(); v.Name != "a" {
		t.Errorf("tie-break eviction = %s, want a", v.Name)
	}
}

func TestEvictLFUEmpty(t *testing.T) {
	r := NewRegistry(64, 1)
	if v := r.EvictLFU(); v != nil {
		t.Errorf("EvictLFU on empty registry = %v", v)
	}
}

func TestTotalSizeAndPieces(t *testing.T) {
	r := NewRegistry(64, 1)
	c1 := col(t, 1000, 1)
	c2 := col(t, 2000, 2)
	r.Add("a", c1, nil, false)
	r.Add("b", c2, nil, false)
	if got := r.TotalSizeBytes(); got != 3000*8 {
		t.Errorf("TotalSizeBytes = %d, want %d", got, 3000*8)
	}
	c1.CrackAt(500)
	if got := r.TotalPieces(); got != 3 {
		t.Errorf("TotalPieces = %d, want 3", got)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{W1: "W1", W2: "W2", W3: "W3", W4: "W4", Strategy(9): "W?"} {
		if s.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(s), s.String(), want)
		}
	}
}

func TestW4IsSeededDeterministic(t *testing.T) {
	build := func() []string {
		r := NewRegistry(64, 42)
		for i := 0; i < 5; i++ {
			r.Add(string(rune('a'+i)), col(t, 50_000, int64(i)), nil, false)
		}
		var picks []string
		for i := 0; i < 10; i++ {
			picks = append(picks, r.PickForRefinement(W4).Name)
		}
		return picks
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("W4 picks diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

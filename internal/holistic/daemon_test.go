package holistic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

func randVals(n int, seed int64, domain int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func newSpace(l1 int) *stats.Registry { return stats.NewRegistry(l1, 7) }

func TestDaemonRefinesIdleSystem(t *testing.T) {
	reg := newSpace(256)
	base := randVals(100_000, 1, 1<<20)
	col := cracking.New("a", base, cracking.Config{})
	reg.Add("a", col, nil, false)

	d := New(reg, cpu.Fixed{Idle: 2}, Config{
		Interval:    time.Millisecond,
		Refinements: 16,
		Seed:        1,
	})
	d.Start()
	deadline := time.After(2 * time.Second)
	for col.Pieces() < 50 {
		select {
		case <-deadline:
			d.Stop()
			t.Fatalf("daemon refined only %d pieces in 2s", col.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
	if d.Refinements() == 0 {
		t.Error("Refinements() = 0 after visible refinement")
	}
	if err := col.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Data integrity after background refinement.
	if got, want := col.SelectRange(100, 1<<19).Count(), column.CountRange(base, 100, 1<<19); got != want {
		t.Fatalf("count after refinement: %d, want %d", got, want)
	}
}

// TestDaemonRefinesFullInt64Domain: over a column spanning
// [MinInt64+5, MaxInt64-5] the pivot draw's signed span wrapped negative
// and every activation died in Int63n — a contained panic per worker and
// no refinement, holistic running as adaptive. The draw is over the
// unsigned span now: the daemon refines, nothing panics, and the index
// still answers like a scan.
func TestDaemonRefinesFullInt64Domain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := make([]int64, 1<<16)
	for i := range base {
		base[i] = min(max(int64(rng.Uint64()), math.MinInt64+5), math.MaxInt64-5)
	}
	base[0], base[len(base)-1] = math.MinInt64+5, math.MaxInt64-5
	reg := newSpace(256)
	col := cracking.New("a", base, cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.Fixed{Idle: 2}, Config{Interval: time.Hour, Refinements: 16, Seed: 1})
	for i := 0; i < 20; i++ {
		d.RunCycleNow(2)
	}
	if got := d.WorkerPanics(); got != 0 {
		t.Fatalf("WorkerPanics = %d (%s), want 0", got, d.LastPanic())
	}
	if d.Refinements() == 0 || col.Pieces() < 50 {
		t.Fatalf("20 two-worker cycles refined %d times into %d pieces", d.Refinements(), col.Pieces())
	}
	if err := col.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MinInt64 + 5, 0}, {-1 << 62, 1 << 62}, {math.MaxInt64 - 5, math.MaxInt64}} {
		if got, want := col.SelectRange(rg[0], rg[1]).Count(), column.CountRange(base, rg[0], rg[1]); got != want {
			t.Fatalf("count over [%d, %d) after refinement: %d, want %d", rg[0], rg[1], got, want)
		}
	}
}

func TestDaemonRespectsBusySystem(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(10_000, 2, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.NewLoadAccountant(2), Config{Interval: time.Millisecond, Seed: 2})
	cpu.Acquire(2)
	defer cpu.Release(2)
	d.Start()
	time.Sleep(50 * time.Millisecond)
	d.Stop()
	if got := col.Pieces(); got != 1 {
		t.Errorf("daemon refined a fully busy system: %d pieces", got)
	}
	if n := d.CycleTotals().Cycles; n != 0 {
		t.Errorf("recorded %d cycles with zero idle contexts", n)
	}
}

func TestDaemonReactsToLoadChanges(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(50_000, 3, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.NewLoadAccountant(2), Config{Interval: time.Millisecond, Seed: 3})

	// Saturate, start, verify no refinement.
	held := 2
	cpu.Acquire(held)
	defer func() { cpu.Release(held) }()
	d.Start()
	time.Sleep(30 * time.Millisecond)
	if col.Pieces() != 1 {
		d.Stop()
		t.Fatalf("refined %d pieces while saturated", col.Pieces())
	}
	// Free a context; the daemon must pick the idleness up.
	cpu.Release(1)
	held--
	deadline := time.After(2 * time.Second)
	for col.Pieces() == 1 {
		select {
		case <-deadline:
			d.Stop()
			t.Fatal("daemon never used the freed context")
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
}

// TestDaemonStandsDownDuringFanOut: the goroutines of a running
// column.ForChunks fan-out — a grouped fold, a join probe — are busy
// contexts, so a daemon over a two-context budget makes no attempt while
// a two-chunk fan-out blocks, and refines once it returns.
func TestDaemonStandsDownDuringFanOut(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(50_000, 4, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)
	const interval = time.Millisecond
	d := New(reg, cpu.NewLoadAccountant(2), Config{Interval: interval, Seed: 4})
	defer d.Stop()

	running := make(chan struct{}, 2)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		column.ForChunks(2, 2, 1, func(_, _, _ int) {
			running <- struct{}{}
			<-release
		})
	}()
	<-running
	<-running
	d.Start()
	time.Sleep(30 * interval) // at least 20 tuning intervals
	attempts, cycles := d.Attempts(), d.CycleTotals().Cycles
	close(release)
	<-done
	if attempts != 0 || cycles != 0 {
		t.Fatalf("%d attempts in %d cycles while a two-chunk fan-out held both contexts", attempts, cycles)
	}
	deadline := time.After(2 * time.Second)
	for d.Refinements() == 0 {
		select {
		case <-deadline:
			t.Fatal("daemon never refined after the fan-out returned")
		case <-time.After(interval):
		}
	}
}

func TestDaemonMovesIndexToOptimal(t *testing.T) {
	reg := newSpace(1024)
	col := cracking.New("a", randVals(8_000, 4, 1<<20), cracking.Config{})
	e := reg.Add("a", col, nil, false)
	d := New(reg, cpu.Fixed{Idle: 1}, Config{
		Interval: time.Millisecond, Refinements: 16, Seed: 4,
	})
	d.Start()
	deadline := time.After(3 * time.Second)
	for e.State() != stats.Optimal {
		select {
		case <-deadline:
			d.Stop()
			t.Fatalf("index never reached optimal: avg piece %.0f, pieces %d",
				col.AvgPieceSize(), col.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
	if col.AvgPieceSize() > 1024 {
		t.Errorf("optimal index has avg piece %.0f > L1 1024", col.AvgPieceSize())
	}
}

func TestDaemonStopIsIdempotentAndWithoutStart(t *testing.T) {
	d := New(newSpace(64), cpu.Fixed{}, Config{Interval: time.Millisecond})
	d.Stop()
	d.Stop() // second call must not panic or hang
	d2 := New(newSpace(64), cpu.Fixed{Idle: 1}, Config{Interval: time.Millisecond})
	d2.Start()
	d2.Start() // idempotent
	d2.Stop()
	d2.Stop()
}

func TestDaemonTelemetry(t *testing.T) {
	reg := newSpace(64)
	col := cracking.New("a", randVals(50_000, 5, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.Fixed{Idle: 2}, Config{
		Interval: time.Millisecond, Refinements: 4, Seed: 5,
	})
	d.Start()
	time.Sleep(100 * time.Millisecond)
	d.Stop()
	// Each cycle activates at most the two idle contexts, so a total of
	// twice the cycle count means every cycle activated both.
	tot := d.CycleTotals()
	if tot.Cycles == 0 {
		t.Fatal("no cycles recorded")
	}
	if tot.Workers != 2*tot.Cycles {
		t.Errorf("%d workers over %d cycles, want 2 per cycle", tot.Workers, tot.Cycles)
	}
	if tot.WorkerTime <= 0 || tot.Wall <= 0 {
		t.Errorf("non-positive times %+v", tot)
	}
	if d.Attempts() < d.Refinements() {
		t.Errorf("attempts %d < refinements %d", d.Attempts(), d.Refinements())
	}
}

func TestDaemonSpreadsAcrossIndexSpace(t *testing.T) {
	reg := newSpace(64)
	cols := make([]*cracking.Column, 5)
	for i := range cols {
		cols[i] = cracking.New("c", randVals(20_000, int64(10+i), 1<<20), cracking.Config{})
		reg.Add(string(rune('a'+i)), cols[i], nil, false)
	}
	d := New(reg, cpu.Fixed{Idle: 2}, Config{
		Interval: time.Millisecond, Refinements: 8, Seed: 7, Strategy: stats.W4,
	})
	d.Start()
	deadline := time.After(3 * time.Second)
	refinedAll := func() bool {
		for _, c := range cols {
			if c.Pieces() < 3 {
				return false
			}
		}
		return true
	}
	for !refinedAll() {
		select {
		case <-deadline:
			d.Stop()
			counts := make([]int, len(cols))
			for i, c := range cols {
				counts[i] = c.Pieces()
			}
			t.Fatalf("random strategy did not reach all indices: pieces %v", counts)
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
}

func TestDaemonRefinesPotentialIndices(t *testing.T) {
	// Figure 9: with idle time before the workload, indices sit in
	// Cpotential and are still refined.
	reg := newSpace(64)
	col := cracking.New("a", randVals(30_000, 20, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, true) // potential: never queried
	d := New(reg, cpu.Fixed{Idle: 1}, Config{
		Interval: time.Millisecond, Refinements: 8, Seed: 8,
	})
	d.Start()
	deadline := time.After(2 * time.Second)
	for col.Pieces() < 10 {
		select {
		case <-deadline:
			d.Stop()
			t.Fatalf("potential index not refined: %d pieces", col.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
}

func TestDaemonMergesPendingUpdates(t *testing.T) {
	reg := newSpace(64)
	base := randVals(20_000, 21, 1000)
	col := cracking.New("a", base, cracking.Config{})
	pend := updates.NewPending()
	for i := 0; i < 100; i++ {
		pend.AddInsert(int64(i*10), 0)
	}
	reg.Add("a", col, pend, false)
	d := New(reg, cpu.Fixed{Idle: 1}, Config{
		Interval: time.Millisecond, Refinements: 8, Seed: 9,
	})
	d.Start()
	deadline := time.After(3 * time.Second)
	for pend.Len() > 0 {
		select {
		case <-deadline:
			d.Stop()
			t.Fatalf("workers left %d pending updates unmerged", pend.Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.Stop()
	if col.Len() != len(base)+100 {
		t.Fatalf("Len() = %d, want %d", col.Len(), len(base)+100)
	}
	if err := col.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitIndexStorageBudget(t *testing.T) {
	reg := newSpace(64)
	d := New(reg, cpu.Fixed{}, Config{
		Interval:      time.Millisecond,
		StorageBudget: 3 * 10_000 * 8, // room for 3 columns
	})
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		col := cracking.New(name, make([]int64, 10_000), cracking.Config{})
		if _, evicted := d.AdmitIndex(name, col, nil, false); len(evicted) != 0 {
			t.Fatalf("index %s evicted %v within budget", name, evicted)
		}
	}
	// Access b and c so a is the LFU victim.
	reg.Get("b").RecordAccess(false)
	reg.Get("c").RecordAccess(false)
	_, evicted := d.AdmitIndex("d", cracking.New("d", make([]int64, 10_000), cracking.Config{}), nil, false)
	if len(evicted) != 1 || evicted[0].Name != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if reg.Get("a") != nil {
		t.Error("evicted index still registered")
	}
	if reg.Get("d") == nil {
		t.Error("admitted index missing")
	}
}

func TestAdmitIndexUnlimitedBudget(t *testing.T) {
	d := New(newSpace(64), cpu.Fixed{}, Config{Interval: time.Millisecond})
	for i := 0; i < 10; i++ {
		if _, evicted := d.AdmitIndex(string(rune('a'+i)),
			cracking.New("x", make([]int64, 1000), cracking.Config{}), nil, false); len(evicted) != 0 {
			t.Fatal("unlimited budget evicted")
		}
	}
}

func TestRunCycleNow(t *testing.T) {
	reg := newSpace(64)
	col := cracking.New("a", randVals(50_000, 22, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.Fixed{}, Config{Interval: time.Hour, Refinements: 16, Seed: 10})
	d.RunCycleNow(2)
	if col.Pieces() < 2 {
		t.Fatalf("RunCycleNow refined nothing: %d pieces", col.Pieces())
	}
	if tot := d.CycleTotals(); tot.Cycles != 1 || tot.Workers != 2 {
		t.Fatalf("CycleTotals() = %+v, want 1 cycle of 2 workers", tot)
	}
	d.RunCycleNow(0) // clamps to 1 worker
	if tot := d.CycleTotals(); tot.Cycles != 2 || tot.Workers != 3 {
		t.Fatalf("CycleTotals() = %+v, want 2 cycles of 3 workers in all", tot)
	}
}

func TestDaemonEmptySpace(t *testing.T) {
	d := New(newSpace(64), cpu.Fixed{Idle: 2}, Config{
		Interval: time.Millisecond, Seed: 11,
	})
	d.Start()
	time.Sleep(30 * time.Millisecond)
	d.Stop() // must not panic or spin on an empty index space
	if d.Refinements() != 0 {
		t.Errorf("refined %d on empty space", d.Refinements())
	}
}

func TestDaemonQueriesRaceDaemon(t *testing.T) {
	// End-to-end concurrency: user queries verify counts while the daemon
	// refines the same columns.
	reg := newSpace(128)
	base := randVals(100_000, 23, 1<<20)
	col := cracking.New("a", base, cracking.Config{})
	reg.Add("a", col, nil, false)
	d := New(reg, cpu.Fixed{Idle: 1}, Config{
		Interval: time.Millisecond, Refinements: 16, Seed: 12,
	})
	d.Start()
	rng := rand.New(rand.NewSource(24))
	for q := 0; q < 300; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		got := col.SelectRange(lo, hi).Count()
		want := column.CountRange(base, lo, hi)
		if got != want {
			d.Stop()
			t.Fatalf("query %d: got %d, want %d while daemon active", q, got, want)
		}
		reg.Get("a").RecordAccess(false)
	}
	d.Stop()
	if err := col.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonStandsDownOnLowCardinalityKey: a key with fewer distinct
// values than N/|L1| can never reach an average piece of |L1| values —
// here 8 values over 1 Mi rows leave 131 072-row pieces against |L1| =
// 4096. Once every value has its own piece no crack can do anything, so
// the index is optimal and the daemon stops spending attempts on it.
func TestDaemonStandsDownOnLowCardinalityKey(t *testing.T) {
	reg := newSpace(4096)
	col := cracking.New("g", randVals(1<<20, 5, 8), cracking.Config{})
	e := reg.Add("g", col, nil, false)
	d := New(reg, cpu.Fixed{Idle: 2}, Config{
		Interval: time.Millisecond, Refinements: 16, Seed: 5,
	})
	d.Start()
	defer d.Stop()
	deadline := time.After(10 * time.Second)
	for e.State() != stats.Optimal {
		select {
		case <-deadline:
			t.Fatalf("the 8-value key never reached optimal: %d pieces, %d attempts", col.Pieces(), d.Attempts())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if !col.Separated() || reg.Distance(e) == 0 {
		t.Fatalf("optimal with %d pieces, separated = %v, distance %.0f: not the case under test", col.Pieces(), col.Separated(), reg.Distance(e))
	}
	attempts, cycles := d.Attempts(), d.CycleTotals().Cycles
	for d.CycleTotals().Cycles < cycles+20 {
		time.Sleep(time.Millisecond)
	}
	if got := d.Attempts(); got != attempts {
		t.Fatalf("%d attempts in the 20 cycles after the index became optimal", got-attempts)
	}
}

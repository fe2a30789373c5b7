package econ

import (
	"sync"
	"testing"
)

// TestLedgerEconomics drives the estimator with a deterministic
// workload: queries at low convergence are slow, queries after
// refinement are fast, so the savings are exactly the per-query delta.
func TestLedgerEconomics(t *testing.T) {
	e := new(Econ)
	// Baseline: three 1000ns drives before any refinement (bucket 0).
	for i := 0; i < 3; i++ {
		e.NoteDrive("x", 1000)
	}
	// The daemon invests 5000ns over two passes, converging to 0.9.
	e.NoteRefined("x", 2000, 4, 0.5)
	e.NoteRefined("x", 3000, 2, 0.9)
	// Three 100ns drives at convergence 0.9 (bucket 7).
	for i := 0; i < 3; i++ {
		e.NoteDrive("x", 100)
	}
	snap := e.Snapshot()
	if len(snap.Indexes) != 1 {
		t.Fatalf("indexes = %d, want 1", len(snap.Indexes))
	}
	ie := snap.Indexes[0]
	if ie.Name != "x" || ie.InvestedNS != 5000 || ie.Refinements != 6 {
		t.Fatalf("ledger totals wrong: %+v", ie)
	}
	if ie.Convergence != 0.9 {
		t.Fatalf("convergence = %v, want 0.9", ie.Convergence)
	}
	if ie.DriveQueries != 6 || len(ie.Buckets) != 2 {
		t.Fatalf("drive buckets wrong: %+v", ie)
	}
	if ie.BaselineDriveUS != 1.0 {
		t.Fatalf("baseline = %vµs, want 1µs", ie.BaselineDriveUS)
	}
	// 3 fast queries × (1000 − 100)ns saved each.
	if ie.SavedNS != 2700 {
		t.Fatalf("saved = %dns, want 2700", ie.SavedNS)
	}
	if want := 2700.0 / 5000.0; ie.ROI != want {
		t.Fatalf("roi = %v, want %v", ie.ROI, want)
	}
	if snap.InvestedNS != 5000 || snap.SavedNS != 2700 {
		t.Fatalf("snapshot totals wrong: %+v", snap)
	}
}

// TestLedgerNeverInventsBenefit: with every drive in one bucket (no
// refinement, e.g. scan or plain adaptive mode) the savings are zero,
// and a regression (slower at high convergence) clamps at zero rather
// than going negative.
func TestLedgerNeverInventsBenefit(t *testing.T) {
	e := new(Econ)
	for i := 0; i < 10; i++ {
		e.NoteDrive("flat", 500)
	}
	if ie := e.Snapshot().Indexes[0]; ie.SavedNS != 0 || ie.ROI != 0 {
		t.Fatalf("flat workload invented benefit: %+v", ie)
	}
	e.NoteDrive("worse", 100)
	e.NoteRefined("worse", 1000, 1, 0.99)
	e.NoteDrive("worse", 900) // slower after refinement
	for _, ie := range e.Snapshot().Indexes {
		if ie.Name == "worse" && ie.SavedNS != 0 {
			t.Fatalf("negative delta must clamp to zero: %+v", ie)
		}
	}
}

// TestSnapshotOrderedByName: the zero value is an empty balance sheet,
// and a populated one lists indexes by name whatever order they were
// first seen in, with totals that agree with the timeline's counter.
func TestSnapshotOrderedByName(t *testing.T) {
	e := new(Econ)
	if s := e.Snapshot(); len(s.Indexes) != 0 || s.InvestedNS != 0 || s.ROI != 0 || e.TotalInvestedNS() != 0 {
		t.Fatalf("zero ledger not empty: %+v, total %d", s, e.TotalInvestedNS())
	}
	for i, name := range []string{"c", "a", "b"} {
		e.NoteRefined(name, int64(100*(i+1)), 1, 0.5)
	}
	snap := e.Snapshot()
	var names []string
	for _, ie := range snap.Indexes {
		names = append(names, ie.Name)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("snapshot order = %v, want [a b c]", names)
	}
	if snap.InvestedNS != 600 || e.TotalInvestedNS() != 600 {
		t.Fatalf("invested: snapshot %d, counter %d, want 600", snap.InvestedNS, e.TotalInvestedNS())
	}
}

// TestLedgerConcurrentRecording is the -race check of the copy-on-write
// table: writers race the first-sight intern of overlapping indexes
// while a reader snapshots; no drive sample may be lost.
func TestLedgerConcurrentRecording(t *testing.T) {
	e := new(Econ)
	const writers, perG = 8, 5000
	attrs := []string{"a", "b", "c"}
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e.NoteDrive(attrs[(g+i)%len(attrs)], 10)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	var total int64
	for _, ie := range e.Snapshot().Indexes {
		total += ie.DriveQueries
	}
	if total != writers*perG {
		t.Fatalf("lost drive samples: total %d, want %d", total, writers*perG)
	}
}

// TestRecordingAllocationFree gates the steady-state recording paths
// at 0 allocs/op (the first-sight intern is the only allocating step,
// and it happens once per attribute).
func TestRecordingAllocationFree(t *testing.T) {
	e := new(Econ)
	e.NoteDrive("x", 100)
	e.NoteRefined("x", 10, 1, 0.5)
	if a := testing.AllocsPerRun(200, func() {
		e.NoteDrive("x", 123)
		e.NoteRefined("x", 17, 1, 0.6)
	}); a > 0 {
		t.Fatalf("econ recording allocates %.1f times per op, want 0", a)
	}
}

// TestConvBucket pins the ratio→bucket mapping edge cases.
func TestConvBucket(t *testing.T) {
	cases := []struct {
		p    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.124, 0}, {0.125, 1}, {0.5, 4},
		{0.99, 7}, {1.0, 7}, {2.0, 7},
	}
	for _, c := range cases {
		if got := convBucket(c.p); got != c.want {
			t.Errorf("convBucket(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	nan := convBucket(float64(0) / func() float64 { return 0 }())
	if nan != 0 {
		t.Errorf("convBucket(NaN) = %d, want 0", nan)
	}
}

package econ

import (
	"sync"
	"testing"
)

// TestLedgerEconomics drives the estimator with a deterministic
// workload: queries at low convergence are slow, queries after
// refinement are fast, so the savings are exactly the per-query delta.
func TestLedgerEconomics(t *testing.T) {
	var l Ledger
	// Baseline: three 1000ns drives before any refinement (bucket 0).
	for i := 0; i < 3; i++ {
		l.NoteDrive(1000)
	}
	// The daemon invests 5000ns over two passes, converging to 0.9.
	l.NoteRefined(2000, 4, 0.5)
	l.NoteRefined(3000, 2, 0.9)
	// Three 100ns drives at convergence 0.9 (bucket 7).
	for i := 0; i < 3; i++ {
		l.NoteDrive(100)
	}
	ie := l.Economics("x")
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
}

// TestLedgerNeverInventsBenefit: with every drive in one bucket (an
// index the daemon never refined) the savings are zero, and a regression
// (slower at high convergence) clamps at zero rather than going
// negative.
func TestLedgerNeverInventsBenefit(t *testing.T) {
	var flat, worse Ledger
	for i := 0; i < 10; i++ {
		flat.NoteDrive(500)
	}
	if ie := flat.Economics("flat"); ie.SavedNS != 0 || ie.ROI != 0 {
		t.Fatalf("flat workload invented benefit: %+v", ie)
	}
	worse.NoteDrive(100)
	worse.NoteRefined(1000, 1, 0.99)
	worse.NoteDrive(900) // slower after refinement
	if ie := worse.Economics("worse"); ie.SavedNS != 0 {
		t.Fatalf("negative delta must clamp to zero: %+v", ie)
	}
}

// TestNewSnapshotTotals: no indexes is an empty balance sheet, and the
// totals and ROI sum the given indexes, which keep their order.
func TestNewSnapshotTotals(t *testing.T) {
	if s := NewSnapshot(nil); len(s.Indexes) != 0 || s.InvestedNS != 0 || s.ROI != 0 {
		t.Fatalf("empty balance sheet: %+v", s)
	}
	snap := NewSnapshot([]IndexEconomics{
		{Name: "a", InvestedNS: 100, SavedNS: 50},
		{Name: "b", InvestedNS: 300, SavedNS: 350},
	})
	if snap.InvestedNS != 400 || snap.SavedNS != 400 || snap.ROI != 1 || snap.Indexes[0].Name != "a" {
		t.Fatalf("totals wrong: %+v", snap)
	}
}

// TestLedgerConcurrentRecording is the -race check of one ledger:
// queries credit drives and the daemon refinements while a reader
// digests it; no drive sample may be lost.
func TestLedgerConcurrentRecording(t *testing.T) {
	var l Ledger
	const writers, perG = 8, 5000
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
				l.Economics("x")
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%100 == 0 {
					l.NoteRefined(10, 1, float64(i)/perG)
				}
				l.NoteDrive(10)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if total := l.Economics("x").DriveQueries; total != writers*perG {
		t.Fatalf("lost drive samples: total %d, want %d", total, writers*perG)
	}
}

// TestRecordingAllocationFree gates both recording paths at 0 allocs/op.
func TestRecordingAllocationFree(t *testing.T) {
	var l Ledger
	if a := testing.AllocsPerRun(200, func() {
		l.NoteDrive(123)
		l.NoteRefined(17, 1, 0.6)
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

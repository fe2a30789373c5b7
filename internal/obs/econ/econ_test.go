package econ

import (
	"math/rand"
	"sync"
	"testing"
)

// TestHeatmapBucketGeometry pins the equi-width mapping: domain edges
// land in the edge buckets, out-of-domain values clamp, and a
// full-domain span touches every bucket exactly once.
func TestHeatmapBucketGeometry(t *testing.T) {
	h := newHeatmap(0, 9972)
	if got := h.bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(lo) = %d, want 0", got)
	}
	if got := h.bucketOf(9972); got != HeatBuckets-1 {
		t.Fatalf("bucketOf(hi) = %d, want %d", got, HeatBuckets-1)
	}
	if got := h.bucketOf(-100); got != 0 {
		t.Fatalf("bucketOf(below domain) = %d, want clamp to 0", got)
	}
	if got := h.bucketOf(1 << 40); got != HeatBuckets-1 {
		t.Fatalf("bucketOf(above domain) = %d, want clamp to %d", got, HeatBuckets-1)
	}
	prev := -1
	for v := int64(0); v <= 9972; v++ {
		b := h.bucketOf(v)
		if b < prev || b > prev+1 {
			t.Fatalf("bucketOf not monotone/contiguous at %d: %d after %d", v, b, prev)
		}
		prev = b
	}
	h.RecordSpan(0, 9973) // full domain, half-open
	st := h.state("x")
	if st.Total != HeatBuckets {
		t.Fatalf("full-domain span total = %d, want %d (one per bucket)", st.Total, HeatBuckets)
	}
	for i, n := range st.Counts {
		if n != 1 {
			t.Fatalf("bucket %d count = %d, want 1", i, n)
		}
	}
	// Degenerate and extreme domains must not divide by zero/overflow.
	one := newHeatmap(42, 42)
	one.RecordPoint(42)
	if one.state("y").Total != 1 {
		t.Fatal("single-key domain lost the point")
	}
	wide := newHeatmap(-1<<62, 1<<62)
	wide.RecordSpan(-1<<62, 1<<62)
	if wide.state("z").Total == 0 {
		t.Fatal("full-int64-ish domain recorded nothing")
	}
}

// TestHeatmapMatchesPerBucketCounting: the difference array reports, for
// any mix of spans and points, what adding one to every overlapped
// bucket would.
func TestHeatmapMatchesPerBucketCounting(t *testing.T) {
	const lo, hi = -5000, 20000
	h := newHeatmap(lo, hi)
	var want [HeatBuckets]int64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := lo - 1000 + rng.Int63n(hi-lo+2000)
		b := a + rng.Int63n(hi-lo)
		switch i % 3 {
		case 0:
			h.RecordPoint(a)
			want[h.bucketOf(a)]++
			continue
		case 1:
			b = a + 1
		}
		h.RecordSpan(a, b)
		for k := h.bucketOf(a); k <= h.bucketOf(b-1); k++ {
			want[k]++
		}
	}
	h.RecordSpan(7, 7) // empty: counts nothing
	h.RecordSpan(9, 3)
	st := h.state("x")
	var total, peak int64
	for b, n := range st.Counts {
		if n != want[b] {
			t.Fatalf("bucket %d counts %d, per-bucket counting %d", b, n, want[b])
		}
		total, peak = total+n, max(peak, n)
	}
	if st.Total != total || st.Peak != peak || st.Counts[st.PeakBucket] != peak {
		t.Fatalf("total %d peak %d at bucket %d; counts say %d and %d", st.Total, st.Peak, st.PeakBucket, total, peak)
	}
}

// TestHeatmapConcurrentRecording is the -race satellite: many writers
// hammer overlapping attributes (racing the first-sight intern path)
// while a reader snapshots; no increment may be lost.
func TestHeatmapConcurrentRecording(t *testing.T) {
	var set HeatmapSet
	const (
		writers = 8
		perG    = 5000
	)
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
				for _, st := range set.states() {
					for b, n := range st.Counts {
						if n < 0 {
							t.Errorf("snapshot of %s shows %d accesses in bucket %d", st.Attr, n, b)
							return
						}
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				attr := attrs[(g+i)%len(attrs)]
				v := int64(i % 10000)
				set.RecordPoint(attr, v, 0, 9999)
				set.RecordSpan(attr, v, v+1, 0, 9999) // single-bucket span
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	var total int64
	for _, st := range set.states() {
		total += st.Total
	}
	if want := int64(writers * perG * 2); total != want {
		t.Fatalf("lost increments: total %d, want %d", total, want)
	}
}

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

// TestRecordingAllocationFree gates the steady-state recording paths
// at 0 allocs/op (the first-sight intern is the only allocating step,
// and it happens once per attribute).
func TestRecordingAllocationFree(t *testing.T) {
	e := new(Econ)
	e.NotePredicate("x", 0, 10, 0, 9999)
	e.NoteDrive("x", 100)
	e.NoteRefined("x", 10, 1, 0.5)
	e.NoteRefinePivot("x", 7, 0, 9999)
	if a := testing.AllocsPerRun(200, func() {
		e.NotePredicate("x", 5, 500, 0, 9999)
		e.NoteDrive("x", 123)
		e.NoteRefined("x", 17, 1, 0.6)
		e.NoteRefinePivot("x", 42, 0, 9999)
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

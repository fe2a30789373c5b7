package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketLayout pins the log-linear mapping: small values are exact,
// larger ones land in monotone buckets whose midpoint is within the
// 1/histSub relative error bound.
func TestBucketLayout(t *testing.T) {
	for v := int64(0); v < histSub; v++ {
		if got := bucketOf(v); got != int(v) {
			t.Fatalf("bucketOf(%d) = %d, want exact bucket", v, got)
		}
		if got := bucketMid(int(v)); got != v {
			t.Fatalf("bucketMid(%d) = %d, want %d", v, got, v)
		}
	}
	prev := -1
	for _, v := range []int64{16, 17, 100, 1_000, 50_000, 1_000_000, 1 << 40, 1<<62 + 12345} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		mid := bucketMid(idx)
		rel := float64(mid-v) / float64(v)
		if rel < 0 {
			rel = -rel
		}
		if rel > 1.0/histSub {
			t.Errorf("bucketMid(%d)=%d for v=%d: relative error %.4f > %.4f", idx, mid, v, rel, 1.0/histSub)
		}
	}
	if got := bucketOf(1<<63 - 1); got != histBuckets-1 {
		t.Errorf("max int64 maps to bucket %d, want %d", got, histBuckets-1)
	}
	if got := bucketOf(-5); got != 0 {
		// RecordNanos clamps before bucketOf; bucketOf itself sees >= 0.
		_ = got
	}
}

// TestHistogramQuantiles checks quantile extraction against a known
// distribution within the layout's relative error.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..100000 ns uniformly: p50 ≈ 50000, p99 ≈ 99000.
	for i := 1; i <= 100000; i++ {
		h.RecordNanos(int64(i))
	}
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != 100000 {
		t.Fatalf("Count = %d, want 100000", s.Count)
	}
	check := func(q, want float64) {
		got := float64(s.Quantile(q))
		rel := (got - want) / want
		if rel < 0 {
			rel = -rel
		}
		if rel > 2.0/histSub {
			t.Errorf("Quantile(%.3f) = %.0f, want ~%.0f (rel err %.4f)", q, got, want, rel)
		}
	}
	check(0.50, 50000)
	check(0.90, 90000)
	check(0.99, 99000)
	check(0.999, 99900)
	if m := s.Mean(); m < 45000*time.Nanosecond || m > 55000*time.Nanosecond {
		t.Errorf("Mean = %v, want ~50µs", m)
	}
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot must report zero quantiles and mean")
	}
}

// TestHistogramConcurrentRecording is the race test: many goroutines
// record concurrently with snapshot readers; the final count must be
// exact (no lost increments) and the run must be clean under -race.
func TestHistogramConcurrentRecording(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perG    = 10000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		var s HistSnapshot
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot(&s)
				_ = s.Quantile(0.99)
			}
		}
	}()
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.RecordNanos(rng.Int63n(1 << 30))
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	var s HistSnapshot
	h.Snapshot(&s)
	if want := uint64(writers * perG); s.Count != want || s.total() != want {
		t.Fatalf("Count = %d, bucket total = %d, want %d", s.Count, s.total(), want)
	}
}

// TestSnapshotMergeAssociativity is the property test: for random
// histogram triples, (a⊕b)⊕c == a⊕(b⊕c) == c⊕(a⊕b) field for field,
// and merging empty is the identity.
func TestSnapshotMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randomSnap := func() *HistSnapshot {
		var h Histogram
		n := rng.Intn(5000)
		for i := 0; i < n; i++ {
			h.RecordNanos(rng.Int63n(1 << uint(10+rng.Intn(30))))
		}
		var s HistSnapshot
		h.Snapshot(&s)
		return &s
	}
	equal := func(x, y *HistSnapshot) bool {
		if x.Count != y.Count || x.Sum != y.Sum {
			return false
		}
		return x.Buckets == y.Buckets
	}
	for trial := 0; trial < 25; trial++ {
		a, b, c := randomSnap(), randomSnap(), randomSnap()
		ab := *a
		ab.Merge(b)
		abc1 := ab
		abc1.Merge(c)

		bc := *b
		bc.Merge(c)
		abc2 := *a
		abc2.Merge(&bc)

		abc3 := *c
		abc3.Merge(&ab)

		if !equal(&abc1, &abc2) {
			t.Fatalf("trial %d: (a+b)+c != a+(b+c)", trial)
		}
		if !equal(&abc1, &abc3) {
			t.Fatalf("trial %d: merge is not commutative at the top level", trial)
		}
		var id HistSnapshot
		withID := abc1
		withID.Merge(&id)
		if !equal(&withID, &abc1) {
			t.Fatalf("trial %d: empty snapshot is not the merge identity", trial)
		}
		if abc1.Count != a.Count+b.Count+c.Count {
			t.Fatalf("trial %d: merged count %d != %d", trial, abc1.Count, a.Count+b.Count+c.Count)
		}
	}
}

// TestForEachBucket pins the cumulative bucket walk that feeds the
// Prometheus exposition: upper bounds are inclusive, strictly
// increasing, partition the value range against bucketOf, the counts
// are monotone non-decreasing, and the final cumulative count equals
// the bucket total.
func TestForEachBucket(t *testing.T) {
	// Every recorded value must be counted at the first bound >= value.
	var h Histogram
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 1000, 50_000, 1 << 40, 1<<63 - 1}
	for _, v := range vals {
		h.RecordNanos(v)
	}
	var (
		visits    int
		prevUpper = int64(-1)
		prevCum   uint64
		lastCum   uint64
	)
	h.ForEachBucket(func(upper int64, cum uint64) {
		if upper <= prevUpper {
			t.Fatalf("bucket %d: upper %d <= previous %d", visits, upper, prevUpper)
		}
		if cum < prevCum {
			t.Fatalf("bucket %d: cumulative count %d < previous %d", visits, cum, prevCum)
		}
		// Cross-check against the recording-side mapping: the count at
		// this bound must equal the number of values <= upper.
		var want uint64
		for _, v := range vals {
			if v <= upper {
				want++
			}
		}
		if cum != want {
			t.Fatalf("upper %d: cumulative %d, want %d", upper, cum, want)
		}
		prevUpper, prevCum = upper, cum
		lastCum = cum
		visits++
	})
	if visits != histBuckets {
		t.Fatalf("visited %d buckets, want %d", visits, histBuckets)
	}
	if lastCum != uint64(len(vals)) {
		t.Fatalf("final cumulative %d, want %d", lastCum, len(vals))
	}
	if prevUpper != 1<<63-1 {
		t.Fatalf("final upper bound %d, want MaxInt64", prevUpper)
	}
	// bucketUpper must be the inclusive bound: bucketOf(upper) == idx and
	// bucketOf(upper+1) == idx+1 for interior buckets.
	for idx := 0; idx < histBuckets-1; idx++ {
		up := bucketUpper(idx)
		if got := bucketOf(up); got != idx {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", idx, up, got)
		}
		if got := bucketOf(up + 1); got != idx+1 {
			t.Fatalf("bucketOf(bucketUpper(%d)+1) = %d, want %d", idx, got, idx+1)
		}
	}
}

// TestRecordAllocationFree gates the recording hot path at 0 allocs/op,
// the dynamic complement of the holisticlint noalloc annotations.
func TestRecordAllocationFree(t *testing.T) {
	var h Histogram
	var c Counter
	m := new(QueryMetrics)
	if a := testing.AllocsPerRun(200, func() {
		h.RecordNanos(12345)
		c.Inc()
		c.Add(3)
		m.RecordOp(OpCount, 9876)
		m.RecordRep(RepBitmap)
		m.NextSeq()
		m.RecordStrategy(StratGroupHash)
	}); a > 0 {
		t.Fatalf("recording allocates %.1f times per op, want 0", a)
	}
}

// TestSummary pins the digest fields used by JSON consumers.
func TestSummary(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	sum := h.Summary()
	if sum.Count != 1000 {
		t.Fatalf("Count = %d", sum.Count)
	}
	if sum.P50US <= 0 || sum.P99US < sum.P50US || sum.P999US < sum.P99US {
		t.Fatalf("quantiles not monotone: %+v", sum)
	}
}

// Integration tests for the refinement-economics surface (DESIGN.md
// §9): the ledger filling in under a real holistic workload and the
// /metrics endpoint serving it.

package holistic

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"holistic/internal/obs"
)

// econWorkload drives a small conjunctive mix long enough for the
// daemon to invest refinement time.
func econWorkload(t *testing.T, s *Store, queries int) {
	t.Helper()
	const domain = 1 << 13
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < queries; i++ {
		lo := rng.Int63n(domain / 2)
		if _, err := s.Query().Where("x", lo, lo+domain/8).Where("y", 0, 3*domain/4).Count(); err != nil {
			t.Fatal(err)
		}
	}
}

func econStoreData(rows int) []int64 {
	const domain = 1 << 13
	vals := make([]int64, rows)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

// TestEconomicsUnderHolisticWorkload: after a workload with an active
// daemon, the balance sheet reports invested time and drive samples.
func TestEconomicsUnderHolisticWorkload(t *testing.T) {
	s := NewStore(Config{
		Mode:           ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	defer s.Close()
	for _, name := range []string{"x", "y"} {
		if err := s.AddIntColumn(name, econStoreData(60_000)); err != nil {
			t.Fatal(err)
		}
	}
	econWorkload(t, s, 50)
	deadline := time.Now().Add(5 * time.Second)
	var ec *Metrics
	for {
		m := s.Metrics()
		if m.Economics != nil && m.Economics.InvestedNS > 0 {
			ec = &m
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never invested refinement time")
		}
		econWorkload(t, s, 10)
		time.Sleep(10 * time.Millisecond)
	}
	snap := ec.Economics
	if len(snap.Indexes) == 0 {
		t.Fatal("economics has no per-index entries")
	}
	var drives int64
	for _, ie := range snap.Indexes {
		drives += ie.DriveQueries
	}
	if drives == 0 {
		t.Error("no drive-stage samples in the ledger")
	}
}

// TestPromEndpointServesEconomics: the shared /metrics endpoint emits
// the per-index economics series and at least one histogram bucket
// group for a live store.
func TestPromEndpointServesEconomics(t *testing.T) {
	s := NewStore(Config{
		Mode:           ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	defer s.Close()
	for _, name := range []string{"x", "y"} {
		if err := s.AddIntColumn(name, econStoreData(60_000)); err != nil {
			t.Fatal(err)
		}
	}
	econWorkload(t, s, 50)
	deadline := time.Now().Add(5 * time.Second)
	for s.ob.Econ.Snapshot().InvestedNS == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never invested refinement time")
		}
		time.Sleep(10 * time.Millisecond)
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"holistic_refine_invested_ns{",
		"holistic_refine_saved_ns{",
		"holistic_queries_total{",
		"holistic_query_latency_ns_bucket{",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Metadata must appear exactly once per family even with several
	// stores registered (the writer dedupes across collectors).
	if n := strings.Count(text, "# TYPE holistic_queries_total "); n != 1 {
		t.Errorf("TYPE holistic_queries_total appears %d times, want 1", n)
	}
}

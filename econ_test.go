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
	for m := s.Metrics(); m.Economics.InvestedNS == 0; m = s.Metrics() {
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

// TestOneLedgerRecordPerIndex: the ledger lives on the index's
// statistics node, so after a holistic workload of selects that each
// drive one index, every index's drive count is its fI; and a store
// without a holistic index space keeps no ledger at all.
func TestOneLedgerRecordPerIndex(t *testing.T) {
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer s.Close()
	for _, name := range []string{"x", "y"} {
		if err := s.AddIntColumn(name, econStoreData(20_000)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		lo := rng.Int63n(1 << 12)
		var err error
		switch i % 4 {
		case 0:
			_, err = s.CountRange("x", lo, lo+1000)
		case 1:
			_, err = s.SumRange("y", lo, lo+1000)
		case 2:
			_, _, _, err = s.MinMaxRange("x", lo, lo+500)
		default:
			_, err = s.Query().Where("y", lo, lo+2000).Count()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.Economics == nil || len(m.Economics.Indexes) != len(m.Daemon.Indexes) || len(m.Daemon.Indexes) != 2 {
		t.Fatalf("ledger %+v beside index space %+v", m.Economics, m.Daemon.Indexes)
	}
	for i, ie := range m.Economics.Indexes {
		ic := m.Daemon.Indexes[i]
		if ie.Name != ic.Name || ie.DriveQueries != ic.Accesses || ie.DriveQueries != 30 {
			t.Errorf("%s: %d drive samples, %s: fI %d; want both 30", ie.Name, ie.DriveQueries, ic.Name, ic.Accesses)
		}
	}

	for _, mode := range []Mode{ModeAdaptive, ModeScan} {
		s := NewStore(Config{Mode: mode, Threads: 1})
		if err := s.AddIntColumn("x", econStoreData(1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CountRange("x", 0, 1000); err != nil {
			t.Fatal(err)
		}
		if ec := s.Metrics().Economics; ec != nil && len(ec.Indexes) != 0 {
			t.Errorf("%v store reports economics indexes %+v", mode, ec.Indexes)
		}
		s.Close()
	}
}

// TestSnapshotOrderedByName: the balance sheet lists a holistic store's
// indexes by name, whatever order they were built in, and its totals sum
// the per-index balances.
func TestSnapshotOrderedByName(t *testing.T) {
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer s.Close()
	order := []string{"c", "a", "b"}
	for _, name := range order {
		if err := s.AddIntColumn(name, econStoreData(5_000)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range order {
		if _, err := s.CountRange(name, 100, 2_000); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Metrics().Economics
	if snap == nil {
		t.Fatal("holistic store reports no economics")
	}
	var names []string
	var invested, saved int64
	for _, ie := range snap.Indexes {
		names = append(names, ie.Name)
		invested += ie.InvestedNS
		saved += ie.SavedNS
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("snapshot order = %v, want [a b c]", names)
	}
	if snap.InvestedNS != invested || snap.SavedNS != saved {
		t.Fatalf("totals invested %d saved %d, want the sums %d and %d", snap.InvestedNS, snap.SavedNS, invested, saved)
	}
}

// TestSeparatedKeyLedgerProgress: a key of 8 distinct values over 65 536
// rows, which the daemon retires as separated (9 pieces, each far above
// |L1| values), is at progress 1 in the daemon's report and in the
// refinement ledger alike: both read one progress rule.
func TestSeparatedKeyLedgerProgress(t *testing.T) {
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer s.Close()
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(i % 8)
	}
	if err := s.AddIntColumn("k", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CountRange("k", 2, 5); err != nil {
		t.Fatal(err)
	}
	retired := func(m Metrics) bool {
		return m.Daemon != nil && len(m.Daemon.Indexes) == 1 && m.Daemon.Indexes[0].State == "optimal"
	}
	for deadline := time.Now().Add(10 * time.Second); !retired(s.Metrics()); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never retired the separated key")
		}
	}
	// The retiring activation records in the ledger after it retires, so
	// wait for that record rather than for a fixed time.
	ledger := func(m Metrics) float64 {
		if m.Economics == nil || len(m.Economics.Indexes) != 1 {
			return -1
		}
		return m.Economics.Indexes[0].Convergence
	}
	m := s.Metrics()
	for deadline := time.Now().Add(10 * time.Second); ledger(m) != 1 && time.Now().Before(deadline); m = s.Metrics() {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Economics == nil || len(m.Economics.Indexes) != 1 {
		t.Fatalf("the ledger holds %+v", m.Economics)
	}
	if d, l := m.Daemon.Indexes[0].Progress, m.Economics.Indexes[0].Convergence; d != 1 || l != d {
		t.Fatalf("retired key: daemon progress %.4f, ledger convergence %.4f; want both 1", d, l)
	}
}

// Integration tests for what the daemon invests in each index (DESIGN.md
// §9): the per-index counters filling in under a real holistic workload
// and the /metrics endpoint serving them.

package holistic

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"holistic/internal/obs"
)

// investWorkload drives a small conjunctive mix long enough for the
// daemon to invest refinement time.
func investWorkload(t *testing.T, s *Store, queries int) {
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

func investStoreData(rows int) []int64 {
	const domain = 1 << 13
	vals := make([]int64, rows)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

// invested sums what the daemon reports investing over the index space.
func invested(m Metrics) (ns int64) {
	if m.Daemon != nil {
		for _, ic := range m.Daemon.Indexes {
			ns += ic.InvestedNS
		}
	}
	return ns
}

// investedStore is a holistic store over x and y after a workload long
// enough for its daemon to have invested refinement time in them.
func investedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(Config{
		Mode:           ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           1,
	})
	for _, name := range []string{"x", "y"} {
		if err := s.AddIntColumn(name, investStoreData(60_000)); err != nil {
			t.Fatal(err)
		}
	}
	investWorkload(t, s, 50)
	for deadline := time.Now().Add(5 * time.Second); invested(s.Metrics()) == 0; {
		if time.Now().After(deadline) {
			s.Close()
			t.Fatal("daemon never invested refinement time")
		}
		investWorkload(t, s, 10)
		time.Sleep(10 * time.Millisecond)
	}
	return s
}

// TestInvestedUnderHolisticWorkload: after a workload with an active
// daemon, an index reports invested time, and every index the daemon
// refined reports the time it took.
func TestInvestedUnderHolisticWorkload(t *testing.T) {
	s := investedStore(t)
	defer s.Close()
	for _, ic := range s.Metrics().Daemon.Indexes {
		if ic.Refinements > 0 && ic.InvestedNS <= 0 {
			t.Errorf("%s: %d refinements in %d ns", ic.Name, ic.Refinements, ic.InvestedNS)
		}
	}
}

// TestPromEndpointServesInvestment: the shared /metrics endpoint emits
// the per-index invested series, and no estimate of what it saved, and
// at least one histogram bucket group for a live store.
func TestPromEndpointServesInvestment(t *testing.T) {
	s := investedStore(t)
	defer s.Close()

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
		`index="x"}`,
		"holistic_refine_invested_ns{",
		"holistic_queries_total{",
		"holistic_query_latency_ns_bucket{",
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{"holistic_refine_saved_ns", "holistic_refine_roi"} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics serves %s", gone)
		}
	}
	// Metadata must appear exactly once per family even with several
	// stores registered (the writer dedupes across collectors).
	if n := strings.Count(text, "# TYPE holistic_queries_total "); n != 1 {
		t.Errorf("TYPE holistic_queries_total appears %d times, want 1", n)
	}
}

// TestOneLedgerRecordPerIndex: what the daemon invests is recorded on
// the index's statistics node, beside fI, so a holistic workload of
// selects that each drive one index reports one record per index, whose
// fI counts that index's selects; and a store without a holistic index
// space reports no index space at all.
func TestOneLedgerRecordPerIndex(t *testing.T) {
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer s.Close()
	for _, name := range []string{"x", "y"} {
		if err := s.AddIntColumn(name, investStoreData(20_000)); err != nil {
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
	if m.Daemon == nil || len(m.Daemon.Indexes) != 2 {
		t.Fatalf("index space %+v, want x and y", m.Daemon)
	}
	for _, ic := range m.Daemon.Indexes {
		if ic.Accesses != 30 {
			t.Errorf("%s: fI %d, want 30", ic.Name, ic.Accesses)
		}
	}

	for _, mode := range []Mode{ModeAdaptive, ModeScan} {
		s := NewStore(Config{Mode: mode, Threads: 1})
		if err := s.AddIntColumn("x", investStoreData(1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CountRange("x", 0, 1000); err != nil {
			t.Fatal(err)
		}
		if d := s.Metrics().Daemon; d != nil {
			t.Errorf("%v store reports an index space %+v", mode, d.Indexes)
		}
		s.Close()
	}
}

// TestSnapshotOrderedByName: the daemon lists a holistic store's indexes
// by name, whatever order they were built in.
func TestSnapshotOrderedByName(t *testing.T) {
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, TuningInterval: time.Millisecond, Seed: 1})
	defer s.Close()
	order := []string{"c", "a", "b"}
	for _, name := range order {
		if err := s.AddIntColumn(name, investStoreData(5_000)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range order {
		if _, err := s.CountRange(name, 100, 2_000); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, ic := range s.Metrics().Daemon.Indexes {
		names = append(names, ic.Name)
	}
	if !slices.Equal(names, []string{"a", "b", "c"}) {
		t.Fatalf("snapshot order = %v, want [a b c]", names)
	}
}

// TestSeparatedKeyLedgerProgress: a key of 8 distinct values over 65 536
// rows, which the daemon retires as separated (9 pieces, each far above
// |L1| values), is at progress 1 in the daemon's report once it retires.
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
	m := s.Metrics()
	for deadline := time.Now().Add(10 * time.Second); !retired(m); m = s.Metrics() {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never retired the separated key")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p := m.Daemon.Indexes[0].Progress; p != 1 {
		t.Fatalf("retired key: daemon progress %.4f, want 1", p)
	}
}

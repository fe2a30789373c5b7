package holistic_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"holistic"
)

// obsStore builds a holistic-mode store over three correlated columns.
func obsStore(t testing.TB, rows int) *holistic.Store {
	t.Helper()
	s := holistic.NewStore(holistic.Config{
		Mode:           holistic.ModeHolistic,
		Threads:        2,
		TuningInterval: time.Millisecond,
		Seed:           3,
	})
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"a", "b", "c"} {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 14)
		}
		if err := s.AddIntColumn(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStoreMetrics: the Metrics snapshot reflects an executed workload
// end to end — query counts, latency summaries, representation and
// strategy counters, access-path counters, and daemon convergence.
func TestStoreMetrics(t *testing.T) {
	s := obsStore(t, 40_000)
	defer s.Close()
	for i := 0; i < 30; i++ {
		lo := int64(i * 100)
		if _, err := s.Query().Where("a", lo, lo+4000).Where("b", 0, 1<<13).Count(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query().Where("a", 0, 1<<13).GroupBy("b").Aggregate(holistic.Count()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the daemon run some cycles

	m := s.Metrics()
	if m.Mode != "holistic" {
		t.Fatalf("mode = %q", m.Mode)
	}
	if m.Rows != 40_000 {
		t.Fatalf("rows = %d", m.Rows)
	}
	if m.Query.Queries < 31 {
		t.Fatalf("queries = %d, want >= 31", m.Query.Queries)
	}
	lat, ok := m.Query.Latency["count"]
	if !ok || lat.Count < 30 {
		t.Fatalf("count latency summary missing or short: %+v", m.Query.Latency)
	}
	if lat.P50US <= 0 || lat.P99US < lat.P50US {
		t.Fatalf("implausible percentiles: %+v", lat)
	}
	if len(m.Query.Representations) == 0 {
		t.Fatal("no representation counters")
	}
	if m.Exec == nil || m.Exec.Selects == 0 {
		t.Fatalf("exec metrics missing: %+v", m.Exec)
	}
	if m.Daemon == nil {
		t.Fatal("holistic store missing daemon convergence")
	}
	if m.Daemon.Ratio < 0 || m.Daemon.Ratio > 1 {
		t.Fatalf("convergence ratio %f out of [0,1]", m.Daemon.Ratio)
	}
	if m.Daemon.Totals.Cycles == 0 {
		t.Fatal("daemon reported no cycles")
	}
	if len(m.Daemon.Indexes) == 0 {
		t.Fatal("daemon reported no indexes")
	}

	// The snapshot must marshal — it backs the HTTP endpoint.
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"convergence_ratio"`, `"latency"`, `"p99_us"`, `"cycle_totals"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("marshaled metrics missing %s", key)
		}
	}
}

// TestQueryExplain: the public Explain reports estimated versus actual
// selectivity per conjunct and the physical choices for select,
// group-by, and join.
func TestQueryExplain(t *testing.T) {
	s := obsStore(t, 20_000)
	defer s.Close()

	ex, err := s.Query().Where("a", 0, 1<<12).Where("b", 1<<10, 1<<14).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Conjuncts) != 2 {
		t.Fatalf("got %d conjuncts", len(ex.Conjuncts))
	}
	for _, c := range ex.Conjuncts {
		if c.EstRows <= 0 || c.ActualRows < 0 {
			t.Errorf("conjunct %s: est %.0f actual %d", c.Attr, c.EstRows, c.ActualRows)
		}
	}
	if ex.Representation == "" || ex.RepresentationReason == "" {
		t.Fatalf("missing representation: %+v", ex)
	}
	if !strings.Contains(ex.String(), "actual ") {
		t.Errorf("rendered explain missing actuals:\n%s", ex)
	}

	gx, err := s.Query().Where("a", 0, 1<<13).GroupBy("b").Explain(holistic.Count(), holistic.Sum("c"))
	if err != nil {
		t.Fatal(err)
	}
	if gx.Strategy == "" || gx.StrategyReason == "" {
		t.Fatalf("grouped explain missing strategy: %+v", gx)
	}

	s2 := obsStore(t, 10_000)
	defer s2.Close()
	jx, err := s.Query().Where("a", 0, 1<<13).
		Join(s2.Query().Where("b", 0, 1<<13), "c", "c").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if jx.Strategy != "hash" && jx.Strategy != "merge" {
		t.Fatalf("join strategy %q", jx.Strategy)
	}
	sides := map[string]bool{}
	for _, c := range jx.Conjuncts {
		sides[c.Side] = true
	}
	if !sides["left"] || !sides["right"] {
		t.Fatalf("join conjuncts missing a side: %+v", jx.Conjuncts)
	}
}

// TestSetTraceJSONL: every query emits one valid JSONL trace while the
// sink is attached, and detaching stops the stream.
func TestSetTraceJSONL(t *testing.T) {
	s := obsStore(t, 10_000)
	defer s.Close()
	var buf bytes.Buffer
	if err := s.SetTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	const q = 5
	for i := 0; i < q; i++ {
		if _, err := s.Query().Where("a", 0, 1<<12).Where("b", 0, 1<<13).Count(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetTraceJSONL(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query().Where("a", 0, 1<<12).Where("b", 0, 1<<13).Count(); err != nil {
		t.Fatal(err)
	}

	lines := 0
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		lines++
		var tr struct {
			Kind      string `json:"kind"`
			Mode      string `json:"mode"`
			Conjuncts []struct {
				Attr string `json:"attr"`
			} `json:"conjuncts"`
			TotalNS int64 `json:"total_ns"`
		}
		if err := json.Unmarshal(scan.Bytes(), &tr); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if tr.Kind != "count" || tr.Mode == "" || len(tr.Conjuncts) != 2 || tr.TotalNS <= 0 {
			t.Fatalf("line %d malformed: %s", lines, scan.Text())
		}
	}
	if lines != q {
		t.Fatalf("got %d trace lines, want %d", lines, q)
	}
}

// TestTraceBeforeColumnsAndThroughRangeDoors: attaching the trace stream
// builds nothing — columns can still be added afterwards (it used to
// build the executor as a side effect, after which AddIntColumn
// refused) — and the single-predicate range doors emit traces like
// every other door.
func TestTraceBeforeColumnsAndThroughRangeDoors(t *testing.T) {
	s := holistic.NewStore(holistic.Config{Mode: holistic.ModeAdaptive})
	defer s.Close()
	var buf bytes.Buffer
	if err := s.SetTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("a", []int64{5, 3, 9, 1, 7}); err != nil {
		t.Fatalf("AddIntColumn after SetTraceJSONL: %v", err)
	}
	if _, err := s.CountRange("a", 2, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SumRange("a", 2, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTraceJSONL(nil); err != nil { // flushes
		t.Fatal(err)
	}
	var kinds []string
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		var tr struct {
			Kind   string `json:"kind"`
			Mode   string `json:"mode"`
			Rows   int    `json:"rows"`
			Result int64  `json:"result"`
		}
		if err := json.Unmarshal(scan.Bytes(), &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Mode == "" || tr.Rows != 5 {
			t.Errorf("trace header incomplete: %s", scan.Text())
		}
		kinds = append(kinds, tr.Kind)
		if tr.Kind == "sum" && tr.Result != 3+5+7 {
			t.Errorf("sum trace result = %d, want 15", tr.Result)
		}
	}
	if strings.Join(kinds, ",") != "count,sum" {
		t.Errorf("trace kinds = %v, want [count sum]", kinds)
	}
}

package query

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/model"
	"holistic/internal/obs"
	"holistic/internal/obs/observer"
)

// observed attaches one fresh observer (flight ring on, window roll
// never armed) to the runner and to its executor, the way a Store does.
func observed(r *Runner) *observer.Observer {
	ob := observer.New(observer.Config{})
	r.SetObserver(ob)
	r.exec.SetObserver(ob)
	return ob
}

// TestExplainDifferentialAllModes: in every executor mode, ExplainCount
// must report per-conjunct estimated and actual selectivities where the
// actuals match the model exactly, plus a representation
// choice with a reason.
func TestExplainDifferentialAllModes(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(3, 6000, domain, 29)
	m := modelOf(tab)
	execs := allModeExecutors(t, tab)
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: domain / 8, Hi: domain},
		{Attr: "c", Lo: domain / 4, Hi: 3 * domain / 4},
	}
	for label, exec := range execs {
		t.Run(label, func(t *testing.T) {
			defer exec.Close()
			r := New(tab, exec, 2)
			observed(r)
			tr, n, err := r.ExplainCount(preds)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Kind != "count" || tr.Mode != exec.Label() {
				t.Fatalf("trace header = %q/%q, want count/%s", tr.Kind, tr.Mode, exec.Label())
			}
			if tr.Result != int64(n) {
				t.Fatalf("trace result %d != count %d", tr.Result, n)
			}
			if len(tr.Conjuncts) != len(preds) {
				t.Fatalf("got %d conjuncts, want %d", len(tr.Conjuncts), len(preds))
			}
			if tr.Rep == "" || tr.RepReason == "" {
				t.Fatalf("missing representation choice: rep=%q reason=%q", tr.Rep, tr.RepReason)
			}
			driving := 0
			for _, c := range tr.Conjuncts {
				if c.EstRows <= 0 {
					t.Errorf("conjunct %s: estimated rows %.1f, want > 0", c.Attr, c.EstRows)
				}
				want := m.Count([]model.Pred{{Attr: c.Attr, Lo: c.Lo, Hi: c.Hi}})
				if c.ActualRows != int64(want) {
					t.Errorf("conjunct %s: actual rows %d, model %d", c.Attr, c.ActualRows, want)
				}
				if c.Driving {
					driving++
					if c.CumRows < 0 {
						t.Errorf("driving conjunct %s has no cumulative count", c.Attr)
					}
				}
			}
			if driving != 1 {
				t.Errorf("got %d driving conjuncts, want exactly 1", driving)
			}
			if s := tr.String(); !strings.Contains(s, "est ") || !strings.Contains(s, "actual ") {
				t.Errorf("rendered trace missing est/actual: %s", s)
			}

			// The single-conjunct form takes the native pushdown.
			tr1, _, err := r.ExplainCount(preds[:1])
			if err != nil {
				t.Fatal(err)
			}
			if tr1.Rep != "native" {
				t.Errorf("single conjunct rep = %q, want native", tr1.Rep)
			}
		})
	}
}

// TestExplainGroupedStrategy: ExplainGrouped reports the executed
// grouping strategy and the reason it was picked, and the metrics
// aggregate records the same strategy.
func TestExplainGroupedStrategy(t *testing.T) {
	tab := buildTable(3, 4000, 1<<12, 31)
	// Key attribute with a tiny domain so the dense path is available.
	keyVals := make([]int64, 4000)
	rng := rand.New(rand.NewSource(7))
	for i := range keyVals {
		keyVals[i] = rng.Int63n(16)
	}
	tab.MustAddColumn(column.New("g", keyVals))
	exec := engine.NewScanExecutor(tab, 2)
	defer exec.Close()
	r := New(tab, exec, 2)
	m := &observed(r).Query
	res := &groupby.Result{}
	tr, err := r.ExplainGrouped(res, []string{"g"}, []groupby.Agg{{Kind: groupby.KindCount}}, []Predicate{{Attr: "a", Lo: 0, Hi: 1 << 11}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy == "" || tr.StrategyReason == "" {
		t.Fatalf("missing strategy: %q (%q)", tr.Strategy, tr.StrategyReason)
	}
	if tr.Result != int64(res.Len()) {
		t.Errorf("trace result %d != groups %d", tr.Result, res.Len())
	}
	snap := m.Snapshot()
	found := false
	for k, v := range snap.Strategies {
		if strings.HasPrefix(k, "groupby/") && v > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("metrics recorded no groupby strategy: %v", snap.Strategies)
	}
}

// TestExplainJoin: the join Explain carries side-scoped conjuncts with
// model-checked actuals and reports hash versus merge with a reason on
// the sparse key w, which the hash table cannot address directly:
// adaptive sides, whose join keys were never cracked, hash; offline
// sides, sorted on demand, merge.
func TestExplainJoin(t *testing.T) {
	lt, rt := joinFixture(t, 3000, 1<<10, 41)
	wideKey(lt, "k")
	wideKey(rt, "k")
	for mode, strategy := range map[string]string{"adaptive": "hash", "offline": "merge"} {
		t.Run(mode, func(t *testing.T) {
			mk := func(tab *engine.Table) *engine.Executor {
				if mode == "offline" {
					return engine.NewOfflineExecutor(tab, 2)
				}
				return engine.NewAdaptiveExecutor(tab, cracking.Config{}, "")
			}
			lExec, rExec := mk(lt), mk(rt)
			defer lExec.Close()
			defer rExec.Close()
			lr := New(lt, lExec, 2)
			rr := New(rt, rExec, 2)
			observed(lr)
			lPreds := []Predicate{{Attr: "v", Lo: 0, Hi: 800}}
			rPreds := []Predicate{{Attr: "v", Lo: 100, Hi: 1000}}
			j := lr.Join(rr, "w", "w", lPreds, rPreds)
			tr, n, err := j.Explain()
			if err != nil {
				t.Fatal(err)
			}
			ml, mr := modelOf(lt), modelOf(rt)
			pairs, _ := model.Join(ml, "w", ml.Rows(mp(lPreds)), mr, "w", mr.Rows(mp(rPreds)))
			if n != int64(len(pairs)) {
				t.Fatalf("join count %d, model %d", n, len(pairs))
			}
			if tr.Strategy != strategy {
				t.Fatalf("join strategy %q, want %s", tr.Strategy, strategy)
			}
			if tr.StrategyReason == "" {
				t.Fatal("missing strategy reason")
			}
			sides := map[string]bool{}
			for _, c := range tr.Conjuncts {
				sides[c.Side] = true
				side := mr
				if c.Side == "left" {
					side = ml
				}
				if wantN := side.Count([]model.Pred{{Attr: c.Attr, Lo: c.Lo, Hi: c.Hi}}); c.ActualRows != int64(wantN) {
					t.Errorf("%s conjunct %s: actual %d, want %d", c.Side, c.Attr, c.ActualRows, wantN)
				}
			}
			if !sides["left"] || !sides["right"] {
				t.Errorf("conjuncts missing a side: %v", sides)
			}
		})
	}
}

// TestSteadyStateCountMetricsAllocationFree: attaching the metrics
// block must not cost the instrumented Count its zero-allocation
// steady state — the tentpole's recording-overhead criterion.
func TestSteadyStateCountMetricsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab := buildTable(3, 1<<15, domain, 23)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	ob := observed(r)
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: domain / 4, Hi: domain},
		{Attr: "c", Lo: 0, Hi: 3 * domain / 4},
	}
	if _, err := r.Count(preds); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Count(preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("instrumented Count allocates %.2f times per query, want 0", allocs)
	}
	if got := ob.Query.Snapshot().Latency["count"].Count; got < 51 {
		t.Errorf("histogram recorded %d counts, want >= 51", got)
	}
}

// TestTraceSinkReceivesQueries: with a sink attached every terminal
// emits one trace, and detaching stops the flow.
func TestTraceSinkReceivesQueries(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(2, 2000, domain, 19)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	ob := observed(r)
	var sink captureSink
	ob.TraceTo(&sink)
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: 0, Hi: domain / 2},
	}
	if _, err := r.Count(preds); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sum("a", preds); err != nil {
		t.Fatal(err)
	}
	if sink.n != 2 {
		t.Fatalf("sink saw %d traces, want 2", sink.n)
	}
	if sink.lastKind != "sum" {
		t.Fatalf("last trace kind %q, want sum", sink.lastKind)
	}
	ob.TraceTo(nil)
	if _, err := r.Count(preds); err != nil {
		t.Fatal(err)
	}
	if sink.n != 2 {
		t.Fatalf("detached sink saw %d traces, want 2", sink.n)
	}
}

// captureSink records trace headers; the trace itself is recycled by
// the runner after Emit returns, so nothing may retain it.
type captureSink struct {
	n        int
	lastKind string
	lastSeq  uint64
}

func (s *captureSink) Emit(tr *obs.QueryTrace) {
	s.n++
	s.lastKind = tr.Kind
	s.lastSeq = tr.Seq
}

// TestSteadyStateCountFlightAllocationFree: the flight recorder rides
// the same hot path as the metrics block and must preserve its
// zero-allocation steady state.
func TestSteadyStateCountFlightAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab := buildTable(3, 1<<15, domain, 23)
	r := New(tab, engine.NewScanExecutor(tab, 1), 1)
	fr := observed(r).Flight
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: domain / 4, Hi: domain},
		{Attr: "c", Lo: 0, Hi: 3 * domain / 4},
	}
	if _, err := r.Count(preds); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Count(preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("flight-recorded Count allocates %.2f times per query, want 0", allocs)
	}
	// Every query records one EvQuery and one EvRep.
	if got := fr.Head(); got < 2*51 {
		t.Errorf("flight ring recorded %d events, want >= %d", got, 2*51)
	}
}

// TestSteadyStateCountObservedAllocationFree: over a holistic executor, the
// executor's epilogue and the access record on the driven index's
// statistics node ride the same hot path as the metrics block and must
// preserve its zero-allocation steady state. The daemon never runs, so
// every access is the query's own.
func TestSteadyStateCountObservedAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	const domain = 1 << 16
	tab := buildTable(3, 1<<15, domain, 23)
	exec := engine.NewHolisticExecutor(tab, engine.HolisticConfig{Daemon: holistic.Config{Interval: time.Hour}})
	defer exec.Close()
	r := New(tab, exec, 1)
	observed(r)
	preds := []Predicate{
		{Attr: "a", Lo: 0, Hi: domain / 2},
		{Attr: "b", Lo: domain / 4, Hi: domain},
		{Attr: "c", Lo: 0, Hi: 3 * domain / 4},
	}
	if _, err := r.Count(preds); err != nil { // warm pools, build the indexes
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Count(preds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("holistic observed Count allocates %.2f times per query, want 0", allocs)
	}
	// The driving conjunct's index counted every query's select.
	if fI := exec.Daemon().Registry().Get("a").Accesses(); fI < 51 {
		t.Errorf("the driving index recorded fI %d, want >= 51", fI)
	}
}

// BenchmarkConjunctiveCountMetrics pairs the uninstrumented pipeline
// ("bare": nil observer) against the same pipeline with the full
// observer attached — metrics and flight ring, over a scan executor
// (TestSteadyStateCountObservedAllocationFree covers a holistic one). The
// delta is the recording overhead the 3% acceptance budget is charged to;
// the CI overhead gate parses both variant names.
func BenchmarkConjunctiveCountMetrics(b *testing.B) {
	for _, variant := range []string{"bare", "observed"} {
		r, preds := benchRunner(b, 1)
		if variant == "observed" {
			observed(r)
		}
		b.Run(variant, func(b *testing.B) {
			if _, err := r.Count(preds); err != nil { // warm pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Count(preds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

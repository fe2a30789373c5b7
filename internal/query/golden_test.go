package query

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestTraceGolden pins what a query reports about itself: the JSONL
// trace a sink receives and the Explain text of a fixed-seed 3-conjunct
// count (dense and sparse drive), a single-conjunct count, a grouped
// query and a join, per deterministic mode, durations zeroed. The files
// were generated at the commit before the terminals became one body, so
// the conjunct order, estimates, cumulative rows, representation and
// strategy with their reasons, statistics and stage names of that
// commit are the contract; each residual's applied path with the rule's
// inputs joined it when residuals could be selected through their own
// index (under adaptive, b is, and its later estimates become exact).
func TestTraceGolden(t *testing.T) {
	const domain = 1 << 12
	var jsonl, text bytes.Buffer
	for _, mode := range []string{"scan", "adaptive"} {
		mk := func(tab *engine.Table) *engine.Executor {
			if mode == "scan" {
				return engine.NewScanExecutor(tab, 1)
			}
			return engine.NewAdaptiveExecutor(tab, cracking.Config{}, "")
		}
		tab := buildTable(3, 6000, domain, 29)
		keys := make([]int64, tab.Rows())
		for i, v := range tab.Column("a").Values() {
			keys[i] = v % 16
		}
		tab.MustAddColumn(column.New("g", keys))
		lt, rt := joinFixture(t, 3000, 1<<10, 41)
		exec, lExec, rExec := mk(tab), mk(lt), mk(rt)
		r, lr, rr := New(tab, exec, 1), New(lt, lExec, 1), New(rt, rExec, 1)

		dense := []Predicate{
			{Attr: "a", Lo: 0, Hi: domain / 2},
			{Attr: "b", Lo: domain / 8, Hi: domain},
			{Attr: "c", Lo: domain / 4, Hi: 3 * domain / 4},
		}
		sparse := []Predicate{
			{Attr: "a", Lo: 0, Hi: domain / 2},
			{Attr: "b", Lo: 100, Hi: 140},
			{Attr: "c", Lo: domain / 4, Hi: 3 * domain / 4},
		}
		gKeys, gAggs := []string{"g"}, []groupby.Agg{{Kind: groupby.KindCount}, {Kind: groupby.KindSum, Attr: "c"}}
		lPreds := []Predicate{{Attr: "v", Lo: 0, Hi: 800}}
		rPreds := []Predicate{{Attr: "v", Lo: 100, Hi: 1000}}
		res := &groupby.Result{}

		// The sink path: one JSONL line per terminal.
		var raw bytes.Buffer
		sink := obs.NewJSONLSink(&raw)
		observed(r).TraceTo(sink)
		observed(lr).TraceTo(sink)
		steps := []func() error{
			func() error { _, err := r.Count(dense); return err },
			func() error { _, err := r.Count(sparse); return err },
			func() error { _, err := r.Count(dense[:1]); return err },
			func() error { _, err := r.Sum("c", dense[:2]); return err },
			func() error { return r.GroupedInto(res, gKeys, gAggs, dense[:2]) },
			func() error { _, err := lr.Join(rr, "k", "k", lPreds, rPreds).Count(); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(raw.String()), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("trace line is not JSON: %v: %s", err, line)
			}
			m["total_ns"] = 0
			if stages, ok := m["stages"].([]any); ok {
				for _, s := range stages {
					s.(map[string]any)["ns"] = 0
				}
			}
			out, err := json.Marshal(m) // map keys marshal sorted
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&jsonl, "%s %s\n", mode, out)
		}

		// The Explain path: the same queries with a caller-owned trace.
		explains := []func() (*obs.QueryTrace, error){
			func() (*obs.QueryTrace, error) { tr, _, err := r.ExplainCount(dense); return tr, err },
			func() (*obs.QueryTrace, error) { tr, _, err := r.ExplainCount(sparse); return tr, err },
			func() (*obs.QueryTrace, error) { tr, _, err := r.ExplainCount(dense[:1]); return tr, err },
			func() (*obs.QueryTrace, error) { return r.ExplainGrouped(res, gKeys, gAggs, dense[:2]) },
			func() (*obs.QueryTrace, error) {
				tr, _, err := lr.Join(rr, "k", "k", lPreds, rPreds).Explain()
				return tr, err
			},
		}
		for _, explain := range explains {
			tr, err := explain()
			if err != nil {
				t.Fatal(err)
			}
			tr.TotalNanos = 0
			for i := range tr.Stages {
				tr.Stages[i].Nanos = 0
			}
			fmt.Fprintf(&text, "== %s\n%s", mode, tr.String())
		}
		exec.Close()
		lExec.Close()
		rExec.Close()
	}
	for name, got := range map[string][]byte{"trace.jsonl.golden": jsonl.Bytes(), "explain.txt.golden": text.Bytes()} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
	}
}

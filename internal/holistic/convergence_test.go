package holistic

import (
	"encoding/json"
	"testing"

	"holistic/internal/cpu"
	"holistic/internal/cracking"
)

func TestConvergenceSnapshot(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(50_000, 1, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, true)
	reg.Get("a").RecordAccess(false)
	d := New(reg, cpu.Fixed{Idle: 1}, Config{Refinements: 16, Seed: 1})
	defer d.Stop()

	c0 := d.Convergence()
	if len(c0.Indexes) != 1 || c0.Indexes[0].Name != "a" {
		t.Fatalf("indexes = %+v", c0.Indexes)
	}
	if c0.Indexes[0].State != "actual" {
		t.Fatalf("state = %q after access, want actual", c0.Indexes[0].State)
	}
	start := c0.Ratio

	for i := 0; i < 40; i++ {
		d.RunCycleNow(2)
	}
	c1 := d.Convergence()
	if c1.Ratio <= start {
		t.Fatalf("convergence ratio did not increase: %.4f -> %.4f", start, c1.Ratio)
	}
	if c1.Refinements == 0 || c1.Attempts < c1.Refinements {
		t.Fatalf("counters inconsistent: %+v", c1)
	}
	if c1.Totals.Cycles != 40 {
		t.Fatalf("totals cycles = %d", c1.Totals.Cycles)
	}
	idx := c1.Indexes[0]
	if idx.Progress <= 0 || idx.Progress > 1 {
		t.Fatalf("progress out of range: %v", idx.Progress)
	}
	// The one index holds every refinement, and the activations that made
	// them are part of the workers' time: recorded on the entry with no
	// observer attached.
	if idx.Refinements != c1.Refinements || idx.InvestedNS <= 0 || idx.InvestedNS > int64(c1.Totals.WorkerTime) {
		t.Fatalf("index invested %d ns in %d refinements; daemon %d refinements in %v of worker time",
			idx.InvestedNS, idx.Refinements, c1.Refinements, c1.Totals.WorkerTime)
	}

	// The snapshot must round-trip as JSON with its telemetry keys.
	b, err := json.Marshal(c1)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"l1_values", "strategy", "indexes", "refinements", "attempts", "busy_rerolls", "cycle_totals", "convergence_ratio"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("convergence JSON missing %q: %s", key, b)
		}
	}
	if ix := m["indexes"].([]any)[0].(map[string]any); ix["invested_ns"] == nil || ix["refinements"] == nil {
		t.Fatalf("index JSON missing invested_ns or refinements: %v", ix)
	}
}

// TestInvestmentPerIndexSumsToDaemonTotals: over several indexes the
// per-index refinements add up to the daemon's, the per-index invested
// time fits in the workers' time, and an index the daemon never picks,
// one already optimal, accrues nothing.
func TestInvestmentPerIndexSumsToDaemonTotals(t *testing.T) {
	reg := newSpace(256)
	for i, name := range []string{"a", "b", "done"} {
		reg.Add(name, cracking.New(name, randVals(50_000, int64(i+1), 1<<20), cracking.Config{}), nil, false)
	}
	reg.MarkOptimal(reg.Get("done"))
	d := New(reg, cpu.Fixed{Idle: 2}, Config{Refinements: 16, Seed: 1})
	defer d.Stop()
	for i := 0; i < 40; i++ {
		d.RunCycleNow(2)
	}
	c := d.Convergence()
	if len(c.Indexes) != 3 {
		t.Fatalf("indexes = %+v", c.Indexes)
	}
	var refinements, invested int64
	for _, ic := range c.Indexes {
		refinements += ic.Refinements
		invested += ic.InvestedNS
		if ic.Name == "done" && (ic.InvestedNS != 0 || ic.Refinements != 0) {
			t.Errorf("optimal index invested %d ns in %d refinements, want none", ic.InvestedNS, ic.Refinements)
		}
		if ic.Refinements > 0 && ic.InvestedNS <= 0 {
			t.Errorf("%s: %d refinements in %d ns", ic.Name, ic.Refinements, ic.InvestedNS)
		}
	}
	if c.Refinements == 0 || refinements != c.Refinements {
		t.Errorf("indexes hold %d refinements, daemon counts %d", refinements, c.Refinements)
	}
	if invested <= 0 || invested > int64(c.Totals.WorkerTime) {
		t.Errorf("indexes invested %d ns in %v of worker time", invested, c.Totals.WorkerTime)
	}
}

// TestRetiringActivationRecordsInvestment: the activation that finds a
// key separated and retires it returns early, and still records its wall
// time on the index, which is then reported optimal at progress 1.
func TestRetiringActivationRecordsInvestment(t *testing.T) {
	reg := newSpace(256)
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(i % 8)
	}
	reg.Add("k", cracking.New("k", vals, cracking.Config{}), nil, false)
	d := New(reg, cpu.Fixed{Idle: 1}, Config{Refinements: 16, Seed: 1})
	defer d.Stop()
	var ic IndexConvergence
	for i := 0; i < 100 && ic.State != "optimal"; i++ {
		d.RunCycleNow(1)
		ic = d.Convergence().Indexes[0]
	}
	if ic.State != "optimal" || ic.Progress != 1 {
		t.Fatalf("separated key at state %q, progress %.4f; want optimal at 1", ic.State, ic.Progress)
	}
	if ic.InvestedNS <= 0 || ic.Refinements != d.Refinements() {
		t.Errorf("retired key invested %d ns in %d refinements; daemon counts %d", ic.InvestedNS, ic.Refinements, d.Refinements())
	}
}

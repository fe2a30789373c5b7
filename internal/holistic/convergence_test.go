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
	d := New(reg, cpu.Fixed{Total: 1, Idle: 1}, Config{Refinements: 16, Seed: 1})
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
}

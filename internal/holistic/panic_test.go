package holistic

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/cpu"
	"holistic/internal/cracking"
)

// TestWorkerPanicContained injects a panicking refinement step and
// asserts the daemon survives it: the panic is counted and reported,
// and the next cycle refines normally.
func TestWorkerPanicContained(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(50_000, 11, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)

	d := New(reg, cpu.Fixed{Total: 2, Idle: 2}, Config{
		Interval:    time.Hour, // cycles driven manually
		Refinements: 8,
		Seed:        5,
	})
	var boom atomic.Bool
	boom.Store(true)
	d.testRefineHook = func() {
		if boom.Load() {
			panic("injected refinement failure")
		}
	}

	d.RunCycleNow(2)
	if got := d.WorkerPanics(); got != 2 {
		t.Errorf("WorkerPanics = %d after a 2-worker panicking cycle, want 2", got)
	}
	if lp := d.LastPanic(); !strings.Contains(lp, "injected refinement failure") {
		t.Errorf("LastPanic = %q, want the injected reason", lp)
	}

	// The daemon keeps operating: the next cycle refines for real.
	boom.Store(false)
	before := col.Pieces()
	d.RunCycleNow(2)
	if col.Pieces() <= before {
		t.Errorf("no refinement after contained panic: pieces %d -> %d", before, col.Pieces())
	}
	if err := col.CheckInvariants(); err != nil {
		t.Fatalf("index invariants broken after contained panic: %v", err)
	}

	c := d.Convergence()
	if c.WorkerPanics != 2 {
		t.Errorf("Convergence.WorkerPanics = %d, want 2", c.WorkerPanics)
	}
	if !strings.Contains(c.LastPanic, "injected") {
		t.Errorf("Convergence.LastPanic = %q, want the injected reason", c.LastPanic)
	}
}

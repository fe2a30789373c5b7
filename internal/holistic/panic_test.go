package holistic

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/obs/observer"
)

// TestWorkerPanicContained injects a panicking refinement step and
// asserts the daemon survives it: the panic is counted and reported,
// and the next cycle refines normally.
func TestWorkerPanicContained(t *testing.T) {
	reg := newSpace(256)
	col := cracking.New("a", randVals(50_000, 11, 1<<20), cracking.Config{})
	reg.Add("a", col, nil, false)

	d := New(reg, cpu.Fixed{Idle: 2}, Config{
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

// panicDumps receives the trigger of every dump the watchdog hands off
// in TestWorkerPanicDumpsWithoutQuery; one per panicking cycle.
var panicDumps = make(chan string, 2)

// noteDump is that test's dump writer. Watch's signature instantiates it
// with the flight trigger type, which this package records through the
// observer and never names.
func noteDump[T fmt.Stringer](tr T) { panicDumps <- tr.String() }

// TestWorkerPanicDumpsWithoutQuery: a contained worker panic reaches the
// watchdog where it is caught, with no query to close a window after it:
// the cycle records a worker_panic anomaly and hands the ring to dump.
// A second panicking cycle within the cooldown is recorded, not dumped.
func TestWorkerPanicDumpsWithoutQuery(t *testing.T) {
	reg := newSpace(256)
	reg.Add("a", cracking.New("a", randVals(10_000, 3, 1<<20), cracking.Config{}), nil, false)
	d := New(reg, cpu.Fixed{Idle: 2}, Config{Interval: time.Hour, Refinements: 4, Seed: 5})
	d.testRefineHook = func() { panic("injected refinement failure") }
	ob := observer.New(observer.Config{})
	ob.Watch(nil, noteDump) // no query runs, so no window reads health
	d.SetObserver(ob)

	d.RunCycleNow(2)
	select {
	case tr := <-panicDumps:
		if tr != "worker_panic" {
			t.Errorf("dumped for %s, want worker_panic", tr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a contained worker panic never reached dump")
	}
	anomalies := 0
	for _, e := range ob.Flight.Snapshot() {
		if f := e.Fields(nil); f["kind"] == "anomaly" {
			anomalies++
			if f["trigger"] != "worker_panic" || f["worker_panics"] != int64(2) {
				t.Errorf("ring anomaly %v, want worker_panic with the daemon's 2 panics", f)
			}
		}
	}
	if anomalies != 1 {
		t.Errorf("ring holds %d anomalies, want 1", anomalies)
	}

	d.RunCycleNow(2)
	if st := ob.Watchdog.State(); st.Anomalies != 2 || st.Suppressed != 1 || st.LastTrigger != "worker_panic" {
		t.Errorf("watchdog state after a second panicking cycle = %+v, want 2 anomalies, 1 suppressed", st)
	}
}

package observer

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/flight"
	"holistic/internal/stats"
)

// captureSink counts emitted traces; the trace is recycled after Emit
// returns, so only copies of its fields are kept.
type captureSink struct {
	n      int
	kind   string
	result int64
}

func (s *captureSink) Emit(tr *obs.QueryTrace) {
	s.n++
	s.kind, s.result = tr.Kind, tr.Result
}

func kinds(o *Observer) map[flight.Kind]int {
	m := make(map[flight.Kind]int)
	for _, e := range o.Flight.Snapshot() {
		m[e.Kind]++
	}
	return m
}

// TestOneCallFeedsEveryConsumer: each record method reaches every
// consumer that reads its event — the table of DESIGN.md §9.
func TestOneCallFeedsEveryConsumer(t *testing.T) {
	o := New(Config{})
	var sink captureSink
	o.TraceTo(&sink)

	sp := o.Begin(obs.OpSum, nil)
	if sp.Seq != 1 || sp.Trace == nil || sp.Trace.Kind != "sum" {
		t.Fatalf("Begin = %+v, want seq 1 and a sum trace", sp)
	}
	o.Rep(sp.Seq, obs.RepBitmap, 1000, 2)
	o.Strategy(sp.Seq, obs.StratGroupHash, 1.5, 2048)
	o.Select(1500, 3, false)
	o.Select(0, 0, true) // a key-order walk is no select
	o.Select(700, 0, false)
	o.CrackerBuilt()
	o.End(sp, 900, 400, 42, nil)

	q := o.Query.Snapshot()
	if q.Queries != 1 || q.Latency["sum"].Count != 1 || q.Representations["bitmap"] != 1 || q.Strategies["groupby/hash"] != 1 {
		t.Errorf("query metrics = %+v", q)
	}
	x := o.Exec.Snapshot()
	if x.Selects != 2 || x.MergedUpdates != 3 || x.KeyOrderWalks != 1 || x.CrackerBuilds != 1 {
		t.Errorf("exec metrics = %+v", x)
	}
	if ks := kinds(o); ks[flight.EvQuery] != 1 || ks[flight.EvRep] != 1 || ks[flight.EvStrategy] != 1 {
		t.Errorf("flight ring kinds = %v", ks)
	}
	if sink.n != 1 || sink.kind != "sum" || sink.result != 42 {
		t.Errorf("sink saw %+v, want one sum trace with result 42", sink)
	}

	// The daemon's and durability's sites.
	o.Refined(&stats.Entry{Name: "a"}, 2, 1, 3, 64.0, 9)
	o.Cycle(1, 2, 2, 1, 7000)
	o.Checkpoint(4, 120, 96_000_000, 5_000_000)
	if dump := o.Recovery(4, 3, true, 1, 0); !dump {
		t.Error("a torn WAL tail must ask for a dump")
	}
	ks := kinds(o)
	for _, k := range []flight.Kind{flight.EvRefine, flight.EvCycle, flight.EvCheckpoint, flight.EvRecovery, flight.EvAnomaly} {
		if ks[k] != 1 {
			t.Errorf("flight ring holds %d %v events, want 1", ks[k], k)
		}
	}
	if ks[flight.EvWALRotate] != 0 {
		t.Error("a checkpoint recorded a wal_rotate event: nothing records that kind")
	}
	if got := o.Watchdog.State().LastTrigger; got != "torn_wal_tail" {
		t.Errorf("watchdog last trigger = %q, want torn_wal_tail", got)
	}

	// Detached: the bracket still counts, nothing is traced.
	o.TraceTo(nil)
	if sp := o.Begin(obs.OpCount, nil); sp.Trace != nil {
		t.Error("Begin handed out a trace with no sink attached")
	} else {
		o.End(sp, 0, 0, 1, nil)
	}
	if q := o.Query.Snapshot().Queries; sink.n != 1 || q != 2 {
		t.Errorf("after detach: sink saw %d traces, %d queries sequenced", sink.n, q)
	}
}

// TestNilObserverAndOwnedTrace: every record method is a no-op on a nil
// observer, and a caller-owned trace (Explain) is filled either way but
// never emitted or recycled.
func TestNilObserverAndOwnedTrace(t *testing.T) {
	var o *Observer
	o.Rep(1, obs.RepNative, 0, 1)
	o.Strategy(1, obs.StratJoinHash, 0, 0)
	o.Select(1, 1, false)
	o.Merged(1)
	o.CrackerBuilt()
	o.Refined(&stats.Entry{}, 1, 1, 1, 1, 1)
	o.Cycle(0, 0, 0, 0, 0)
	o.Panicked(1)
	o.Checkpoint(0, 0, 0, 0)
	o.DumpWritten()
	if o.Recovery(0, 0, true, 0, 0) {
		t.Error("nil observer asked for a dump")
	}
	if sp := o.Begin(obs.OpCount, nil); sp != (Span{}) {
		t.Errorf("nil Begin = %+v, want the zero span", sp)
	} else {
		o.End(sp, 0, 0, 0, nil)
	}

	for _, ob := range []*Observer{nil, New(Config{FlightEvents: -1})} {
		var sink captureSink
		if ob != nil {
			ob.TraceTo(&sink)
		}
		own := obs.NewTrace()
		sp := ob.Begin(obs.OpCount, own)
		if sp.Trace != own {
			t.Fatal("Begin did not adopt the caller's trace")
		}
		ob.End(sp, 0, 0, 7, errors.New("boom"))
		if own.Kind != "count" || own.Result != 7 || own.Err != "boom" || own.TotalNanos < 0 {
			t.Errorf("owned trace = %+v", own)
		}
		if sink.n != 0 {
			t.Error("a caller-owned trace was emitted to the sink")
		}
	}
	if off := New(Config{FlightEvents: -1}); off.Flight != nil || off.Watchdog != nil {
		t.Error("FlightEvents < 0 must leave the observer without a ring")
	}
}

// TestRecordingAllocationFree: the whole query-side surface, all
// consumers attached and the watchdog armed, allocates nothing in the
// steady state. The 201 queries measured close no window.
func TestRecordingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	o := New(Config{})
	o.Watch(func() flight.Observation { return flight.Observation{} }, nil)
	run := func() {
		sp := o.Begin(obs.OpCount, nil)
		o.Rep(sp.Seq, obs.RepPosList, 50, 2)
		o.Strategy(sp.Seq, obs.StratJoinMerge, 1, 2)
		o.Select(100, 1, false)
		o.Cycle(1, 2, 3, 4, 5)
		o.End(sp, 60, 40, 7, nil)
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Errorf("recording allocates %.1f times per query, want 0", allocs)
	}
}

// TestTickJudgesOneWindow: one tick hands the cumulative latency
// snapshot and the daemon's health to the watchdog; a breached absolute
// SLO comes back as the trigger to dump for and is recorded in the ring.
func TestTickJudgesOneWindow(t *testing.T) {
	o := New(Config{SLOP99: time.Microsecond})
	if _, dump := o.tick(flight.Observation{}); dump {
		t.Fatal("an idle store tripped the watchdog")
	}
	for i := 0; i < 100; i++ {
		o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
		o.Query.RecordOp(obs.OpSum, 5_000_000) // 5 ms against a 1 µs objective
	}
	trig, dump := o.tick(flight.Observation{Convergence: 0.5, HaveConvergence: true})
	if trig != flight.TriggerP99 || !dump {
		t.Fatalf("tick = %v, dump %v; want a p99 anomaly to dump for", trig, dump)
	}
	if kinds(o)[flight.EvAnomaly] != 1 {
		t.Error("the anomaly was not recorded in the ring")
	}
	if ws := o.Watchdog.State(); ws.LastSamples != 200 {
		t.Errorf("watchdog judged %d samples, want the 200 of the window", ws.LastSamples)
	}
	if _, dump := New(Config{FlightEvents: -1}).tick(flight.Observation{}); dump {
		t.Error("an observer without a watchdog judged a window")
	}
}

// TestWindowRollsOnRecording: once Watch arms the watchdog, the End of
// every WindowQueries-th query closes one window — reading health once
// and handing a dumping anomaly to dump on a goroutine of its own — a
// daemon cycle closes none, and the observer starts no goroutine of its
// own otherwise. Before Watch or without a ring, nothing rolls.
func TestWindowRollsOnRecording(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		watch bool
		rolls bool
	}{
		{"armed", Config{SLOP99: time.Nanosecond}, true, true},
		{"not watched", Config{SLOP99: time.Nanosecond}, false, false},
		{"ring off", Config{FlightEvents: -1, SLOP99: time.Nanosecond}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := New(tc.cfg)
			var healths atomic.Int64
			dumped := make(chan flight.Trigger, 2) // one per window the test closes
			before := runtime.NumGoroutine()
			if tc.watch {
				o.Watch(func() flight.Observation { healths.Add(1); return flight.Observation{} }, func(tr flight.Trigger) { dumped <- tr })
			}
			if got := runtime.NumGoroutine() - before; got != 0 {
				t.Errorf("Watch started %d goroutines, want 0", got)
			}
			record := func(n int) {
				for i := 0; i < n; i++ {
					o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
				}
			}
			record(WindowQueries - 1)
			o.Cycle(1, 1, 0, 0, 0)
			if healths.Load() != 0 {
				t.Fatal("a window closed before its last query")
			}
			record(1)
			if !tc.rolls {
				record(WindowQueries)
				if healths.Load() != 0 || kinds(o)[flight.EvAnomaly] != 0 {
					t.Errorf("an inert watchdog read health %d times", healths.Load())
				}
				return
			}
			if got := healths.Load(); got != 1 {
				t.Fatalf("%d queries closed %d windows, want 1", WindowQueries, got)
			}
			record(WindowQueries)
			if got := healths.Load(); got != 2 {
				t.Fatalf("%d queries closed %d windows, want 2", 2*WindowQueries, got)
			}
			// Every sample is over the 1 ns objective: the first window
			// dumps, the second breach falls within the cooldown.
			if ws := o.Watchdog.State(); ws.Windows != 2 || ws.Anomalies != 2 || ws.Suppressed != 1 {
				t.Errorf("watchdog state %+v, want 2 windows, 2 anomalies, 1 suppressed dump", ws)
			}
			select {
			case tr := <-dumped:
				if tr != flight.TriggerP99 {
					t.Errorf("dumped for %v, want p99_slo", tr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a breached window never reached dump")
			}
		})
	}
}

// TestConcurrentRecordersCloseOneWindow: WindowQueries queries spread
// over 8 goroutines close exactly one window, on whichever End holds the
// window's last sequence number.
func TestConcurrentRecordersCloseOneWindow(t *testing.T) {
	o := New(Config{})
	var healths atomic.Int64
	o.Watch(func() flight.Observation { healths.Add(1); return flight.Observation{} }, nil)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < WindowQueries/goroutines; i++ {
				o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
			}
		}()
	}
	wg.Wait()
	if got := healths.Load(); got != 1 {
		t.Errorf("%d windows closed, want 1", got)
	}
	if ws := o.Watchdog.State(); ws.Windows != 1 {
		t.Errorf("watchdog judged %d windows, want 1", ws.Windows)
	}
}

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
	o.Select("a", 1500, 3, false, true)
	o.Select("a", 0, 0, true, true)        // a key-order walk is no select
	o.Select("nope", 700, 0, false, false) // a failed select credits no index
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
	ec := o.Econ.Snapshot()
	if len(ec.Indexes) != 1 || ec.Indexes[0].Name != "a" || ec.Indexes[0].DriveQueries != 1 {
		t.Errorf("ledger = %+v, want one drive sample on a only", ec.Indexes)
	}
	if sink.n != 1 || sink.kind != "sum" || sink.result != 42 {
		t.Errorf("sink saw %+v, want one sum trace with result 42", sink)
	}

	// The daemon's and durability's sites.
	o.Refined("a", 2, 1, 3, 64.0, 9, 5000, 0.5)
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
	ec = o.Econ.Snapshot()
	if ec.InvestedNS != 5000 {
		t.Errorf("ledger invested %d ns, want 5000", ec.InvestedNS)
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
	o.Select("a", 1, 1, false, true)
	o.Merged(1)
	o.CrackerBuilt()
	o.Refined("a", 1, 1, 1, 1, 1, 1, 1)
	o.Cycle(0, 0, 0, 0, 0)
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
// consumers attached and the window roll armed, allocates nothing in the
// steady state.
func TestRecordingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	o := New(Config{Watchdog: time.Hour})
	o.Watch(func() flight.Observation { return flight.Observation{} }, nil)
	run := func() {
		sp := o.Begin(obs.OpCount, nil)
		o.Rep(sp.Seq, obs.RepPosList, 50, 2)
		o.Strategy(sp.Seq, obs.StratJoinMerge, 1, 2)
		o.Select("a", 100, 1, false, true)
		o.Cycle(1, 2, 3, 4, 5)
		o.End(sp, 60, 40, 7, nil)
	}
	run() // first sight of "a" interns its ledger slot
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Errorf("recording allocates %.1f times per query, want 0", allocs)
	}
}

// TestTickJudgesOneWindow: one tick hands the cumulative latency
// snapshot and the daemon's health to the watchdog; a breached absolute
// SLO comes back as the trigger to dump for and is recorded in the ring.
func TestTickJudgesOneWindow(t *testing.T) {
	o := New(Config{SLOP99: time.Microsecond, Watchdog: time.Hour})
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

// TestWindowRollsOnRecording: once Watch arms the roll, the first End or
// Cycle after each interval closes one window — reading health once and
// handing a dumping anomaly to dump on a goroutine of its own — and the
// observer starts no goroutine of its own otherwise. Before Watch, with
// the interval off or without a ring, nothing rolls.
func TestWindowRollsOnRecording(t *testing.T) {
	const every = 20 * time.Millisecond
	for _, tc := range []struct {
		name  string
		cfg   Config
		watch bool
		rolls bool
	}{
		{"armed", Config{SLOP99: time.Nanosecond, Watchdog: every}, true, true},
		{"not watched", Config{SLOP99: time.Nanosecond, Watchdog: every}, false, false},
		{"interval off", Config{SLOP99: time.Nanosecond}, true, false},
		{"ring off", Config{FlightEvents: -1, SLOP99: time.Nanosecond, Watchdog: every}, true, false},
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
			record := func() {
				for i := 0; i < 40; i++ {
					o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
				}
			}
			record()
			if healths.Load() != 0 {
				t.Fatal("a window closed before its interval passed")
			}
			time.Sleep(every + every/2)
			o.Cycle(1, 1, 0, 0, 0) // the first recording after the interval closes the window
			record()
			if !tc.rolls {
				if healths.Load() != 0 || kinds(o)[flight.EvAnomaly] != 0 {
					t.Errorf("an inert roll read health %d times", healths.Load())
				}
				return
			}
			if got := healths.Load(); got != 1 {
				t.Fatalf("one interval passed and %d windows closed, want 1", got)
			}
			time.Sleep(every + every/2)
			record() // the second window holds 40 samples, each over the 1 ns objective
			if got := healths.Load(); got != 2 {
				t.Fatalf("two intervals passed and %d windows closed, want 2", got)
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

// TestConcurrentRecordersCloseOneWindow: recorders racing past the same
// due time close the window once; the compare-and-swap turns the others
// away.
func TestConcurrentRecordersCloseOneWindow(t *testing.T) {
	o := New(Config{Watchdog: time.Hour})
	var healths atomic.Int64
	o.Watch(func() flight.Observation { healths.Add(1); return flight.Observation{} }, nil)
	o.nextRoll.Store(0) // due now
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
			}
		}()
	}
	wg.Wait()
	if got := healths.Load(); got != 1 {
		t.Errorf("%d windows closed, want 1", got)
	}
}

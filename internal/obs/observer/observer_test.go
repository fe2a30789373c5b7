package observer

import (
	"errors"
	"runtime"
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
	if sink.n != 1 || o.Query.Seq() != 2 {
		t.Errorf("after detach: sink saw %d traces, %d queries sequenced", sink.n, o.Query.Seq())
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
// consumers attached, allocates nothing in the steady state.
func TestRecordingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	o := New(Config{})
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

// TestTickFeedsBothConsumersFromOneSnapshot: one Tick hands the same
// cumulative latency snapshot to the time-series ring and the watchdog;
// a breached absolute SLO comes back as the trigger to dump for and is
// recorded in the ring.
func TestTickFeedsBothConsumersFromOneSnapshot(t *testing.T) {
	o := New(Config{SLOP99: time.Microsecond, Watchdog: time.Hour, Timeline: time.Hour})
	now := time.Now()
	if _, dump := o.Tick(now, Health{}, true, true); dump {
		t.Fatal("an idle store tripped the watchdog")
	}
	for i := 0; i < 100; i++ {
		o.End(o.Begin(obs.OpCount, nil), 0, 0, 1, nil)
		o.Query.RecordOp(obs.OpSum, 5_000_000) // 5 ms against a 1 µs objective
		o.Select("a", 1000, 0, false, true)
	}
	trig, dump := o.Tick(now.Add(time.Second), Health{Refinements: 9}, true, true)
	if trig != flight.TriggerP99 || !dump {
		t.Fatalf("Tick = %v, dump %v; want a p99 anomaly to dump for", trig, dump)
	}
	if kinds(o)[flight.EvAnomaly] != 1 {
		t.Error("the anomaly was not recorded in the ring")
	}
	tl := o.Timeline.Snapshot()
	if len(tl.Windows) != 1 || tl.Capacity != TimelineCapacity {
		t.Fatalf("timeline = %d windows of capacity %d", len(tl.Windows), tl.Capacity)
	}
	w := tl.Windows[0]
	// queries, selects, ..., refinements: the counter columns in order.
	if w.Deltas[0] != 100 || w.Deltas[1] != 100 || w.Deltas[4] != 9 {
		t.Errorf("window deltas = %v", w.Deltas)
	}
	if w.HistCounts[0] != 200 || w.HistCounts[1] != 100 {
		t.Errorf("window histogram counts = %v, want 200 query and 100 select samples", w.HistCounts)
	}
	if ws := o.Watchdog.State(); ws.LastSamples != 200 {
		t.Errorf("watchdog judged %d samples, want the same 200", ws.LastSamples)
	}
	// A tick that is only the timeline's leaves the watchdog alone.
	if _, dump := o.Tick(now.Add(2*time.Second), Health{}, false, true); dump || len(o.Timeline.Snapshot().Windows) != 2 {
		t.Error("a timeline-only tick must add a window and judge nothing")
	}
}

// TestOneSamplerGoroutine: a store starts at most one observability
// goroutine whatever the cadences, none when both are off, and Stop
// ends it.
func TestOneSamplerGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		wantGo int
	}{
		{"both", Config{Watchdog: time.Millisecond, Timeline: 3 * time.Millisecond}, 1},
		{"watchdog only", Config{Watchdog: time.Millisecond}, 1},
		{"timeline only", Config{FlightEvents: -1, Timeline: time.Millisecond}, 1},
		{"ring off turns the watchdog off", Config{FlightEvents: -1, Watchdog: time.Millisecond}, 0},
		{"both off", Config{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := New(tc.cfg)
			before := runtime.NumGoroutine()
			var ticks atomic.Int64
			o.Start(func() Health { ticks.Add(1); return Health{} }, nil)
			if got := runtime.NumGoroutine() - before; got != tc.wantGo {
				t.Errorf("Start launched %d goroutines, want %d", got, tc.wantGo)
			}
			if tc.wantGo > 0 {
				fed := func() bool { // ticking, and past the timeline's baseline reading
					return ticks.Load() >= 3 && (tc.cfg.Timeline <= 0 || len(o.Timeline.Snapshot().Windows) > 0)
				}
				for deadline := time.Now().Add(5 * time.Second); !fed() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if !fed() {
					t.Errorf("the sampler ticked %d times and fed its consumers nothing", ticks.Load())
				}
			}
			o.Stop()
			o.Stop() // idempotent
			// Stop returned, so the sampler is past its last statement; give
			// the runtime a moment to retire the goroutine itself.
			for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine() - before; got > 0 {
				t.Errorf("%d goroutines still running after Stop", got)
			}
		})
	}
}

package flight

import (
	"sync"
	"testing"
	"time"

	"holistic/internal/obs"
)

func TestRecorderRoundtrip(t *testing.T) {
	r := NewRecorder(128)
	r.RecordQuery(time.Now(), uint8(obs.OpCount), 7, 1500, 900, 400, 42)
	r.RecordRep(uint8(obs.RepBitmap), 7, 1000, 3)
	r.RecordStrategy(uint8(obs.StratGroupSort), 7, 1.5, 2048)
	id := r.Intern("orders.total")
	r.RecordRefine(id, 2, 5, 3, 123.5, 17)

	ev := r.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("Snapshot returned %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	q := ev[0]
	if q.Kind != EvQuery || q.Code != uint8(obs.OpCount) {
		t.Errorf("event 0 = %v/%d, want query/count", q.Kind, q.Code)
	}
	if q.Args != [5]int64{7, 1500, 900, 400, 42} {
		t.Errorf("query args = %v", q.Args)
	}
	ref := ev[3]
	if ref.Kind != EvRefine || ref.ID != id {
		t.Errorf("event 3 = %v id=%d, want refine id=%d", ref.Kind, ref.ID, id)
	}
	if got := r.Name(ref.ID); got != "orders.total" {
		t.Errorf("Name(%d) = %q", ref.ID, got)
	}
	f := ref.Fields(r.Names())
	if f["attr"] != "orders.total" || f["distance"] != 123.5 {
		t.Errorf("refine fields = %v", f)
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(64) // minimum capacity
	const total = 1000
	for i := int64(1); i <= total; i++ {
		r.RecordCycle(i, 1, 0, 0, 0)
	}
	ev := r.Snapshot()
	if len(ev) != 64 {
		t.Fatalf("Snapshot after wrap returned %d events, want 64", len(ev))
	}
	for i, e := range ev {
		want := uint64(total - 64 + i + 1)
		if e.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Args[0] != int64(want) {
			t.Fatalf("event %d cycle = %d, want %d", i, e.Args[0], want)
		}
	}
	if r.Head() != total {
		t.Errorf("Head = %d, want %d", r.Head(), total)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.RecordQuery(time.Now(), 0, 1, 2, 3, 4, 5)
	r.RecordAnomaly(TriggerP99, 1, 2, 0.5, 0, 10)
	if r.Intern("x") != 0 || r.Cap() != 0 || r.Head() != 0 {
		t.Error("nil recorder should intern to 0 and report empty")
	}
	if ev := r.Snapshot(); ev != nil {
		t.Errorf("nil Snapshot = %v", ev)
	}
	if data := Encode(r, TriggerManual, 0); data == nil {
		t.Error("Encode(nil) should still produce a valid empty dump")
	} else if d, err := Decode(data); err != nil || len(d.Events) != 0 {
		t.Errorf("Decode(Encode(nil)) = %v, %v", d, err)
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	r := NewRecorder(128)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.RecordQuery(time.Now(), uint8(obs.OpCount), uint64(i), i, i, i, i)
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		ev := r.Snapshot()
		last := uint64(0)
		for _, e := range ev {
			if e.Seq <= last {
				t.Fatalf("Snapshot out of order: %d after %d", e.Seq, last)
			}
			last = e.Seq
			if e.Kind != EvQuery {
				t.Fatalf("torn event leaked: kind %v seq %d", e.Kind, e.Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	r := NewRecorder(64)
	r.RecordRecovery(3, 120, true, 4, 1)
	r.RecordCheckpoint(4, 120, 96_000_000, 5_000_000)
	id := r.Intern("a")
	r.RecordRefine(id, 1, 0, 2, 64.0, 9)
	r.RecordAnomaly(TriggerP99, 9_000_000, 1_000_000, 0.75, 0, 100)

	data := Encode(r, TriggerP99, 4)
	d, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d.Trigger != TriggerP99 || d.Generation != 4 || d.Version != 1 {
		t.Errorf("header = trigger %v gen %d version %d", d.Trigger, d.Generation, d.Version)
	}
	if len(d.Events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(d.Events))
	}
	live := r.Snapshot()
	for i := range live {
		if d.Events[i] != live[i] {
			t.Errorf("event %d: decoded %+v != live %+v", i, d.Events[i], live[i])
		}
	}
	if len(d.Names) != 2 || d.Names[1] != "a" {
		t.Errorf("names = %v", d.Names)
	}
	if f := d.Events[3].Fields(d.Names); f["trigger"] != "p99_slo" {
		t.Errorf("anomaly fields = %v", f)
	}
	if d.WallUnixNano == 0 || d.EpochUnixNano == 0 {
		t.Error("timestamps not set")
	}
}

// TestDecodeUnknownStrategy: a dump holding a strategy code this build
// does not know (one written by a build with more strategies) still
// decodes, and the event renders as "strat?".
func TestDecodeUnknownStrategy(t *testing.T) {
	r := NewRecorder(64)
	r.RecordStrategy(uint8(obs.NumStrats), 3, 1.5, 2.5)
	d, err := Decode(Encode(r, TriggerP99, 1))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != EvStrategy || d.Events[0].Code != uint8(obs.NumStrats) {
		t.Fatalf("decoded events = %+v, want one strategy event with code %d", d.Events, obs.NumStrats)
	}
	if f := d.Events[0].Fields(d.Names); f["strategy"] != "strat?" {
		t.Errorf("unknown strategy fields = %v, want strategy strat?", f)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := NewRecorder(64)
	for i := int64(0); i < 10; i++ {
		r.RecordCheckpoint(i, 1, 1, 1)
	}
	data := Encode(r, TriggerCheckpoint, 1)
	if _, err := Decode(data); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip-header", func(b []byte) []byte { b[9]++; return b }},
		{"bitflip-event", func(b []byte) []byte { b[len(b)-20]++; return b }},
		{"extended", func(b []byte) []byte { return append(b, 0) }},
	} {
		buf := append([]byte(nil), data...)
		if _, err := Decode(tc.mut(buf)); err == nil {
			t.Errorf("%s: Decode accepted corrupt dump", tc.name)
		}
	}
}

func TestRecordAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	r := NewRecorder(256)
	id := r.Intern("warm") // intern before measuring: first sight allocates
	allocs := testing.AllocsPerRun(200, func() {
		r.RecordQuery(time.Now(), uint8(obs.OpSum), 1, 100, 60, 40, 7)
		r.RecordRep(uint8(obs.RepPosList), 1, 50, 2)
		r.RecordStrategy(uint8(obs.StratJoinMerge), 1, 1.0, 2.0)
		r.RecordRefine(id, 1, 1, 1, 0.5, 3)
		r.RecordCycle(1, 2, 3, 4, 5)
		r.RecordCheckpoint(1, 2, 3, 4)
		r.RecordAnomaly(TriggerPanic, 1, 2, 0.1, 1, 10)
	})
	if allocs > 0 {
		t.Errorf("recording allocates %.1f per run, want 0", allocs)
	}
}

func observeHist(w *Watchdog, h *obs.Histogram) Verdict {
	var s obs.HistSnapshot
	h.Snapshot(&s)
	return w.Observe(Observation{Latency: &s})
}

func TestWatchdogP99Baseline(t *testing.T) {
	w := NewWatchdog(0)
	var h obs.Histogram
	// Three healthy windows around 1ms establish the baseline.
	for win := 0; win < 3; win++ {
		for i := 0; i < 100; i++ {
			h.RecordNanos(1_000_000)
		}
		if v := observeHist(w, &h); v.Trigger != TriggerNone {
			t.Fatalf("healthy window %d triggered %v", win, v.Trigger)
		}
	}
	st := w.State()
	if st.BaselineP99US < 500 || st.BaselineP99US > 2000 {
		t.Fatalf("baseline = %.0fus, want ~1000us", st.BaselineP99US)
	}
	// A 10x spike breaches the 4x multiple.
	for i := 0; i < 100; i++ {
		h.RecordNanos(10_000_000)
	}
	v := observeHist(w, &h)
	if v.Trigger != TriggerP99 || !v.Dump {
		t.Fatalf("spike verdict = %+v, want p99 dump", v)
	}
	// Second spike within the cooldown is counted but not dumped.
	for i := 0; i < 100; i++ {
		h.RecordNanos(10_000_000)
	}
	v = observeHist(w, &h)
	if v.Trigger != TriggerP99 || v.Dump {
		t.Fatalf("cooldown verdict = %+v, want suppressed", v)
	}
	st = w.State()
	if st.Anomalies != 2 || st.Suppressed != 1 || st.LastTrigger != "p99_slo" {
		t.Errorf("state = %+v", st)
	}
}

func TestWatchdogAbsoluteSLO(t *testing.T) {
	w := NewWatchdog(time.Millisecond)
	var h obs.Histogram
	for i := 0; i < 50; i++ {
		h.RecordNanos(5_000_000)
	}
	// No baseline yet, but the absolute bound fires on the first
	// judged window.
	if v := observeHist(w, &h); v.Trigger != TriggerP99 || !v.Dump {
		t.Fatalf("verdict = %+v, want absolute p99 dump", v)
	}
}

// TestWatchdogEmptyWindowNotJudged: a window that adds no samples to
// the cumulative snapshot carries no p99, so it neither fires the
// absolute objective nor counts as a judged window.
func TestWatchdogEmptyWindowNotJudged(t *testing.T) {
	w := NewWatchdog(time.Microsecond)
	var h obs.Histogram
	for i := 0; i < 10; i++ {
		h.RecordNanos(50_000_000)
	}
	if v := observeHist(w, &h); v.Trigger != TriggerP99 || v.Samples != 10 {
		t.Fatalf("breaching window verdict = %+v, want p99 over 10 samples", v)
	}
	// The same cumulative snapshot again: the window in between is empty.
	if v := observeHist(w, &h); v.Trigger != TriggerNone || v.Samples != 0 {
		t.Fatalf("empty window verdict = %+v, want none over 0 samples", v)
	}
	if v := w.Observe(Observation{}); v.Trigger != TriggerNone || v.Samples != 0 {
		t.Fatalf("no-snapshot verdict = %+v, want none", v)
	}
	if st := w.State(); st.Windows != 1 || st.Anomalies != 1 {
		t.Errorf("state = %+v, want 1 judged window and 1 anomaly", st)
	}
}

// TestWatchdogPanicSharesCooldown: a worker panic reported right after
// a dumped p99 breach is counted but suppressed, and the next judged
// window still reads against the baseline it had.
func TestWatchdogPanicSharesCooldown(t *testing.T) {
	w := NewWatchdog(time.Millisecond)
	var h obs.Histogram
	for i := 0; i < 50; i++ {
		h.RecordNanos(5_000_000)
	}
	if v := observeHist(w, &h); v.Trigger != TriggerP99 || !v.Dump {
		t.Fatalf("breach verdict = %+v, want a p99 dump", v)
	}
	if v := w.NotePanic(); v.Trigger != TriggerPanic || v.Dump {
		t.Fatalf("panic within the cooldown = %+v, want suppressed", v)
	}
	for i := 0; i < 50; i++ {
		h.RecordNanos(100_000)
	}
	if v := observeHist(w, &h); v.Trigger != TriggerNone || v.Samples != 50 {
		t.Fatalf("healthy window after the panic = %+v, want none over 50 samples", v)
	}
	if st := w.State(); st.Windows != 2 || st.Anomalies != 2 || st.Suppressed != 1 || st.LastTrigger != "worker_panic" {
		t.Errorf("state = %+v", st)
	}
}

func TestWatchdogConvergenceRegression(t *testing.T) {
	w := NewWatchdog(0)
	if v := w.Observe(Observation{Convergence: 0.8, HaveConvergence: true}); v.Trigger != TriggerNone {
		t.Fatalf("first convergence reading triggered %v", v.Trigger)
	}
	if v := w.Observe(Observation{Convergence: 0.78, HaveConvergence: true}); v.Trigger != TriggerNone {
		t.Fatalf("within-slack regression triggered %v", v.Trigger)
	}
	v := w.Observe(Observation{Convergence: 0.5, HaveConvergence: true})
	if v.Trigger != TriggerConvergence || !v.Dump {
		t.Fatalf("regression verdict = %+v", v)
	}
}

// TestWatchdogWorkerPanic: a contained worker panic is an anomaly on
// its own, dumped under the same cooldown as a judged window.
func TestWatchdogWorkerPanic(t *testing.T) {
	w := NewWatchdog(0)
	if v := w.NotePanic(); v.Trigger != TriggerPanic || !v.Dump {
		t.Fatalf("first panic verdict = %+v, want a worker_panic dump", v)
	}
	if v := w.NotePanic(); v.Trigger != TriggerPanic || v.Dump {
		t.Fatalf("panic within the cooldown = %+v, want suppressed", v)
	}
	if st := w.State(); st.Anomalies != 2 || st.Suppressed != 1 || st.LastTrigger != "worker_panic" {
		t.Errorf("state = %+v", st)
	}
}

func TestWatchdogTornTail(t *testing.T) {
	w := NewWatchdog(0)
	v := w.NoteTornTail()
	if v.Trigger != TriggerTornTail || !v.Dump {
		t.Fatalf("torn tail verdict = %+v", v)
	}
	w.NoteDump()
	st := w.State()
	if st.Anomalies != 1 || st.DumpsWritten != 1 || st.LastTrigger != "torn_wal_tail" {
		t.Errorf("state = %+v", st)
	}
}

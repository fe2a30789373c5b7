// Package observer is the one recording surface of a store: a concrete,
// nil-safe Observer that owns every consumer of the store's telemetry —
// the query and executor metrics, the flight ring with its watchdog and
// the trace sink — and feeds all of them from one call per
// instrumentation site.
// The query runner, the executor and its daemon, and the durability layer
// each hold the same *Observer and never see a consumer directly, so a
// new consumer is one line here, not one more setter at every site.
//
// Every record method is //holistic:noalloc and safe on a nil receiver:
// an unobserved runner or executor pays one pointer compare per site.
package observer

import (
	"sync/atomic"
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/flight"
	"holistic/internal/stats"
)

// Config sizes an Observer.
type Config struct {
	// FlightEvents sizes the flight ring (0 selects
	// flight.DefaultEvents); negative leaves the store without a ring
	// and without a watchdog.
	FlightEvents int
	// SLOP99 is the watchdog's absolute p99 bound; 0 leaves only the
	// relative rule.
	SLOP99 time.Duration
}

// WindowQueries is how many sequenced queries one watchdog window holds:
// the End of every WindowQueries-th query closes it. At 1024 samples the
// window's p99 is about its 10th-largest latency, so one slow query
// cannot make a breach on its own, and at the benchmark's query rates
// (550 to 8 000 per second) a window closes every 0.1 to 2 seconds, about
// as often as the one-second clock this count replaced.
const WindowQueries = 1024

// Observer is one store's telemetry. The zero value is not usable;
// construct with New.
type Observer struct {
	// Query and Exec are the lifetime aggregates behind Metrics().Query
	// and Metrics().Exec.
	Query obs.QueryMetrics
	Exec  obs.ExecMetrics
	// Flight is the event ring; nil when disabled (its Record methods
	// are nil-safe).
	Flight *flight.Recorder

	// Watchdog baselines latency and convergence and decides when the
	// ring is worth dumping; nil exactly when Flight is.
	Watchdog *flight.Watchdog

	sink atomic.Pointer[sinkBox]
	// watch holds what Watch installed; nil until then, and no window
	// closes while it is.
	watch atomic.Pointer[watchers]
}

// sinkBox wraps the sink interface value for atomic.Pointer.
type sinkBox struct{ s obs.TraceSink }

// watchers are the store's side of the watchdog: its daemon's health and
// its dump writer.
type watchers struct {
	health func() flight.Observation
	dump   func(flight.Trigger)
}

// New builds an observer; Watch arms its watchdog.
func New(cfg Config) *Observer {
	o := &Observer{}
	if cfg.FlightEvents >= 0 {
		o.Flight = flight.NewRecorder(cfg.FlightEvents)
		o.Watchdog = flight.NewWatchdog(cfg.SLOP99)
	}
	return o
}

// TraceTo streams one execution trace per query into s (nil stops
// tracing); the caller keeps owning — flushing, closing — its sinks.
// Safe to swap concurrently with queries.
func (o *Observer) TraceTo(s obs.TraceSink) {
	if s == nil {
		o.sink.Store(nil)
		return
	}
	o.sink.Store(&sinkBox{s: s})
}

// Watch arms the watchdog: from now on the End of every
// WindowQueries-th query closes a window. health reads the holistic
// daemon's side of the window's observation (the zero value: no daemon)
// once per window; dump, when not nil, preserves the ring for an anomaly
// worth dumping. Without a watchdog Watch does nothing; a second call
// replaces the first.
func (o *Observer) Watch(health func() flight.Observation, dump func(flight.Trigger)) {
	if o.Watchdog != nil {
		o.watch.Store(&watchers{health: health, dump: dump})
	}
}

// roll closes the watchdog window on the query that ends it, with no
// store, executor or daemon lock held.
//
//holistic:alloc-ok one query in WindowQueries closes the window; health and the anomaly path may allocate
func (o *Observer) roll() {
	w := o.watch.Load()
	if w == nil {
		return
	}
	if trig, dump := o.tick(w.health()); dump {
		w.handOff(trig)
	}
}

// handOff preserves the ring for trig on a goroutine of its own, so that
// no query or daemon cycle waits on a file write. Nothing waits for the
// goroutine: it ends with its one write, and a durable store's Close
// turns a write it has not begun into a no-op.
func (w *watchers) handOff(trig flight.Trigger) {
	if w != nil && w.dump != nil {
		go w.dump(trig)
	}
}

// tick closes one watchdog window: the cumulative merged latency digest,
// added to the daemon's convergence in h, goes to the watchdog, which
// diffs it against the previous window. When the watchdog calls an
// anomaly the trigger is recorded into the ring, and dump reports that
// the ring should be preserved now.
func (o *Observer) tick(h flight.Observation) (trig flight.Trigger, dump bool) {
	if o.Watchdog == nil {
		return flight.TriggerNone, false
	}
	var lat obs.HistSnapshot
	o.Query.MergedLatency(&lat)
	h.Latency = &lat
	v := o.Watchdog.Observe(h)
	if v.Trigger == flight.TriggerNone {
		return flight.TriggerNone, false
	}
	o.Flight.RecordAnomaly(v.Trigger, v.WindowP99NS, v.BaselineP99NS, v.Convergence, 0, v.Samples)
	return v.Trigger, v.Dump
}

// Span is one open query bracket: what Begin hands End.
type Span struct {
	Seq   uint64
	Start time.Time
	// Trace is non-nil while a sink is attached or the caller forced its
	// own trace (Explain); the stages between Begin and End fill it.
	Trace *obs.QueryTrace
	op    obs.Op
	owned bool // Trace belongs to the caller: neither emitted nor recycled
}

// Begin opens a query bracket: the sequence number, the one start
// timestamp every consumer shares, and the trace — own when the caller
// brings one (Explain), a pooled one when a sink is attached, none
// otherwise. Explicit Begin/End pairs, not deferred closures: the
// bracket must not allocate.
//
//holistic:noalloc
func (o *Observer) Begin(op obs.Op, own *obs.QueryTrace) Span {
	sp := Span{Trace: own, op: op, owned: own != nil}
	if o != nil {
		sp.Seq = o.Query.NextSeq()
		if own == nil && o.sink.Load() != nil {
			sp.Trace = obs.GetTrace()
		}
	} else if own == nil {
		return sp
	}
	if sp.Trace != nil {
		sp.Trace.Seq, sp.Trace.Kind = sp.Seq, op.String()
	}
	sp.Start = time.Now()
	return sp
}

// End closes a bracket: one clock reading feeds the op latency
// histogram, the flight EvQuery event and the trace, which is then
// emitted and recycled unless the caller owns it. The End of every
// WindowQueries-th sequenced query closes the watchdog's window: Begin
// hands each query its own sequence number, so exactly one End per
// window closes it.
//
//holistic:noalloc
func (o *Observer) End(sp Span, driveNs, refineNs, result int64, err error) {
	if o == nil && sp.Trace == nil {
		return
	}
	now := time.Now()
	elapsed := now.Sub(sp.Start).Nanoseconds()
	if o != nil {
		o.Query.RecordOp(sp.op, elapsed)
		o.Flight.RecordQuery(now, uint8(sp.op), sp.Seq, elapsed, driveNs, refineNs, result)
		if sp.Seq%WindowQueries == 0 {
			o.roll()
		}
	}
	if sp.Trace == nil {
		return
	}
	sp.Trace.Result, sp.Trace.TotalNanos = result, elapsed
	if err != nil {
		sp.Trace.Err = err.Error()
	}
	if sp.owned {
		return
	}
	if box := o.sink.Load(); box != nil {
		box.s.Emit(sp.Trace)
	}
	// Recycle through the field: Span.Trace is how the pool discipline
	// knows bracket-attached traces reach PutTrace.
	obs.PutTrace(sp.Trace)
}

// Rep records the intermediate representation query seq executed with,
// and the estimate that chose it.
//
//holistic:noalloc
func (o *Observer) Rep(seq uint64, rep obs.Rep, estDriving float64, conjuncts int) {
	if o == nil {
		return
	}
	o.Query.RecordRep(rep)
	o.Flight.RecordRep(uint8(rep), seq, int64(estDriving), int64(conjuncts))
}

// Strategy records the physical grouping or join strategy query seq
// executed, with the two statistics behind the choice.
//
//holistic:noalloc
func (o *Observer) Strategy(seq uint64, s obs.Strat, stat0, stat1 float64) {
	if o == nil {
		return
	}
	o.Query.RecordStrategy(s)
	o.Flight.RecordStrategy(uint8(s), seq, stat0, stat1)
}

// Select is the executor's epilogue, the one place every query door
// passes through: pending updates the access merged, then either a
// key-order walk or a select with its latency.
//
//holistic:noalloc
func (o *Observer) Select(ns int64, merged int, walked bool) {
	if o == nil {
		return
	}
	o.Merged(merged)
	if walked {
		o.Exec.KeyOrderWalks.Inc()
		return
	}
	o.Exec.RecordSelect(ns)
}

// Merged counts pending updates merged into an index structure outside a
// select: the checkpoint export folds them all in.
//
//holistic:noalloc
func (o *Observer) Merged(n int) {
	if o != nil && n > 0 {
		o.Exec.MergedUpdates.Add(int64(n))
	}
}

// CrackerBuilt counts one index structure created on a query's first
// touch.
//
//holistic:noalloc
func (o *Observer) CrackerBuilt() {
	if o != nil {
		o.Exec.CrackerBuilds.Inc()
	}
}

// Refined records one daemon worker activation on e as an audit event:
// what it did and how far the index still is from optimal.
func (o *Observer) Refined(e *stats.Entry, refined, merged, attempts int64, distance float64, pieces int64) {
	if o == nil || o.Flight == nil {
		return
	}
	o.Flight.RecordRefine(o.Flight.Intern(e.Name), refined, merged, attempts, distance, pieces)
}

// Cycle records one completed daemon tuning cycle.
//
//holistic:noalloc
func (o *Observer) Cycle(cycle, workers, refinements, merged, wallNs int64) {
	if o != nil {
		o.Flight.RecordCycle(cycle, workers, refinements, merged, wallNs)
	}
}

// Panicked records that daemon workers panicked and were contained
// (panics is the daemon's running count) as an anomaly, and hands the
// ring to dump unless an anomaly dumped within the cooldown.
func (o *Observer) Panicked(panics int64) {
	if o == nil || o.Watchdog == nil {
		return
	}
	v := o.Watchdog.NotePanic()
	o.Flight.RecordAnomaly(v.Trigger, 0, 0, 0, panics, 0)
	if v.Dump {
		o.watch.Load().handOff(v.Trigger)
	}
}

// Checkpoint records a committed snapshot generation: the WAL records it
// baked in, the bytes it wrote, how long it took.
//
//holistic:noalloc
func (o *Observer) Checkpoint(gen, records, bytes, durNs int64) {
	if o == nil {
		return
	}
	o.Flight.RecordCheckpoint(gen, records, bytes, durNs)
}

// Recovery records one boot-time recovery. A torn WAL tail is crash
// evidence: it is also recorded as an anomaly, and dump reports that the
// caller should preserve the ring on disk now.
func (o *Observer) Recovery(gen, replayed int64, torn bool, restored, dropped int64) (dump bool) {
	if o == nil {
		return false
	}
	o.Flight.RecordRecovery(gen, replayed, torn, restored, dropped)
	if !torn || o.Watchdog == nil {
		return false
	}
	v := o.Watchdog.NoteTornTail()
	o.Flight.RecordAnomaly(v.Trigger, 0, 0, 0, 0, 0)
	return v.Dump
}

// DumpWritten counts a dump that reached its destination.
func (o *Observer) DumpWritten() {
	if o != nil && o.Watchdog != nil {
		o.Watchdog.NoteDump()
	}
}

// FlightState renders the ring and watchdog for the
// /debug/holistic/flight endpoint: decoded events (oldest first) plus
// the watchdog state and the prior on-disk dumps the caller knows of.
func (o *Observer) FlightState(priorDumps []string) any {
	events := o.Flight.Snapshot()
	names := o.Flight.Names()
	decoded := make([]map[string]any, len(events))
	for i, e := range events {
		decoded[i] = e.Fields(names)
	}
	return map[string]any{
		"ring_capacity":   o.Flight.Cap(),
		"events_recorded": o.Flight.Head(),
		"watchdog":        o.Watchdog.State(),
		"prior_dumps":     priorDumps,
		"events":          decoded,
	}
}

// Package observer is the one recording surface of a store: a concrete,
// nil-safe Observer that owns every consumer of the store's telemetry —
// the query and executor metrics, the flight ring with its watchdog, the
// refinement ledger and the trace sink — and feeds all of them from one
// call per instrumentation site. The query runner, the executor and its
// daemon, and the durability layer each hold the same *Observer and never
// see a consumer directly, so a new consumer is one line here, not one
// more setter at every site.
//
// Every record method is //holistic:noalloc and safe on a nil receiver:
// an unobserved runner or executor pays one pointer compare per site.
package observer

import (
	"sync/atomic"
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/econ"
	"holistic/internal/obs/flight"
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
	// Watchdog is the watchdog's window, already resolved: zero or
	// negative leaves the window roll inert.
	Watchdog time.Duration
}

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
	// Econ is the refinement ledger.
	Econ econ.Econ

	// Watchdog baselines latency and convergence and decides when the
	// ring is worth dumping; nil exactly when Flight is.
	Watchdog *flight.Watchdog

	sink atomic.Pointer[sinkBox]

	cfg  Config
	born time.Time
	// nextRoll is when, in nanoseconds since born, the next End or Cycle
	// closes the watchdog window: never until Watch arms the roll with
	// health and dump.
	nextRoll atomic.Int64
	health   func() flight.Observation
	dump     func(flight.Trigger)
}

// sinkBox wraps the sink interface value for atomic.Pointer.
type sinkBox struct{ s obs.TraceSink }

// New builds an observer; Watch arms its watchdog's window roll.
func New(cfg Config) *Observer {
	o := &Observer{cfg: cfg, born: time.Now()}
	o.nextRoll.Store(never)
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

// never is the next-roll time of an observer whose roll is inert.
const never = 1<<63 - 1

// Watch arms the watchdog's window roll: from now on the first End or
// Cycle after each Watchdog interval closes the window. health reads the
// holistic daemon's side of the window's observation (the zero value:
// no daemon) once per roll; dump, when not nil, preserves the ring for an anomaly
// worth dumping, in a goroutine of its own so that no query waits on a
// file write. Without a watchdog or a positive interval the roll stays
// inert. Call it at most once: the store of nextRoll publishes health
// and dump to the recorders that see it.
func (o *Observer) Watch(health func() flight.Observation, dump func(flight.Trigger)) {
	if o.Watchdog == nil || o.cfg.Watchdog <= 0 {
		return
	}
	o.health, o.dump = health, dump
	o.nextRoll.Store(o.since(time.Now()) + int64(o.cfg.Watchdog))
}

// since is now on the observer's monotonic clock, in nanoseconds.
//
//holistic:noalloc
func (o *Observer) since(now time.Time) int64 { return int64(now.Sub(o.born)) }

// roll closes the watchdog window at t if the window is due and this
// caller wins it; every other caller of the same instant returns at the
// compare-and-swap. It runs on whichever query or daemon cycle came
// first after the interval, with no store, executor or daemon lock held.
// Nothing waits for the dump's goroutine: it ends with its one write, and
// a durable store's Close turns a write it has not begun into a no-op.
//
//holistic:alloc-ok the window roll runs once per WatchdogInterval; health and the anomaly path may allocate
func (o *Observer) roll(t int64) {
	due := o.nextRoll.Load()
	if t < due || !o.nextRoll.CompareAndSwap(due, t+int64(o.cfg.Watchdog)) {
		return
	}
	if trig, dump := o.tick(o.health()); dump && o.dump != nil {
		go o.dump(trig)
	}
}

// tick closes one watchdog window: the cumulative merged latency digest,
// added to the daemon's convergence and panic count in h, goes to the
// watchdog, which diffs it against the previous window. When the
// watchdog calls an anomaly the trigger is recorded into the ring, and
// dump reports that the ring should be preserved now.
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
	o.Flight.RecordAnomaly(v.Trigger, v.WindowP99NS, v.BaselineP99NS, v.Convergence, v.WorkerPanics, v.Samples)
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
// histogram, the flight EvQuery event, the watchdog's window roll and
// the trace, which is then emitted and recycled unless the caller owns
// it.
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
		if t := o.since(now); t >= o.nextRoll.Load() {
			o.roll(t)
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
	o.Query.RecordStrategy(seq, s)
	o.Flight.RecordStrategy(uint8(s), seq, stat0, stat1)
}

// Select is the executor's epilogue, the one place every query door
// passes through: pending updates the access merged, then either a
// key-order walk or a select with its latency — which, when the select
// succeeded, is also the ledger's drive credit for attr, the benefit
// side of the refinement balance (a failed one names no index to
// credit: an unknown attribute must not grow the ledger).
//
//holistic:noalloc
func (o *Observer) Select(attr string, ns int64, merged int, walked, ok bool) {
	if o == nil {
		return
	}
	o.Merged(merged)
	if walked {
		o.Exec.KeyOrderWalks.Inc()
		return
	}
	o.Exec.RecordSelect(ns)
	if ok {
		o.Econ.NoteDrive(attr, ns)
	}
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

// Refined records one daemon worker activation on attr: the audit event
// (what it did, how far the index still is from optimal) and the
// ledger's investment side (wall time spent, convergence ratio reached).
func (o *Observer) Refined(attr string, refined, merged, attempts int64, distance float64, pieces, investedNs int64, progress float64) {
	if o == nil {
		return
	}
	if o.Flight != nil {
		o.Flight.RecordRefine(o.Flight.Intern(attr), refined, merged, attempts, distance, pieces)
	}
	o.Econ.NoteRefined(attr, investedNs, refined, progress)
}

// Cycle records one completed daemon tuning cycle, which, like a query,
// may close the watchdog's window.
//
//holistic:noalloc
func (o *Observer) Cycle(cycle, workers, refinements, merged, wallNs int64) {
	if o == nil {
		return
	}
	o.Flight.RecordCycle(cycle, workers, refinements, merged, wallNs)
	if t := o.since(time.Now()); t >= o.nextRoll.Load() {
		o.roll(t)
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

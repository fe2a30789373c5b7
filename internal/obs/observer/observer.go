// Package observer is the one recording surface of a store: a concrete,
// nil-safe Observer that owns every consumer of the store's telemetry —
// the query and executor metrics, the flight ring with its watchdog, the
// refinement ledger, the trace sink and the time-series ring — and feeds
// all of them from one call per instrumentation site. The query runner,
// the executor and its daemon, and the durability layer each hold the
// same *Observer and never see a consumer directly, so a new consumer is
// one line here, not one more setter at every site.
//
// Every record method is //holistic:noalloc and safe on a nil receiver:
// an unobserved runner or executor pays one pointer compare per site.
package observer

import (
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/econ"
	"holistic/internal/obs/flight"
)

// Config sizes an Observer. Cadences are already resolved: zero or
// negative turns that consumer of the sampler off.
type Config struct {
	// FlightEvents sizes the flight ring (0 selects
	// flight.DefaultEvents); negative leaves the store without a ring
	// and without a watchdog.
	FlightEvents int
	// SLOP99 is the watchdog's absolute p99 bound; 0 leaves only the
	// relative rule.
	SLOP99 time.Duration
	// Watchdog and Timeline are the sampler's two cadences.
	Watchdog, Timeline time.Duration
}

// TimelineCapacity is the time-series ring size in windows: about 42
// minutes of history at the default 5 s cadence.
const TimelineCapacity = 512

// TimelineCounters names the cumulative counters each timeline window
// deltifies, in sampling order; timelineHists the latency histograms.
var (
	TimelineCounters = []string{
		"queries", "selects", "cracker_builds", "merged_updates",
		"refinements", "refine_invested_ns", "flight_events",
	}
	timelineHists = []string{"query_latency", "select_latency"}
)

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
	// Timeline is the ring of deltified metric windows behind
	// /debug/holistic/timeline; nil when its cadence is off.
	Timeline *obs.TimeSeries

	sink atomic.Pointer[sinkBox]

	cfg      Config
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{} // closed when the sampler exits; nil if never started
}

// sinkBox wraps the sink interface value for atomic.Pointer.
type sinkBox struct{ s obs.TraceSink }

// New builds an observer; Start launches its sampler.
func New(cfg Config) *Observer {
	o := &Observer{cfg: cfg, stop: make(chan struct{})}
	if cfg.FlightEvents >= 0 {
		o.Flight = flight.NewRecorder(cfg.FlightEvents)
		o.Watchdog = flight.NewWatchdog(cfg.SLOP99)
	}
	if cfg.Timeline > 0 {
		o.Timeline = obs.NewTimeSeries(TimelineCapacity, TimelineCounters, timelineHists)
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
// emitted and recycled unless the caller owns it.
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

// Cycle records one completed daemon tuning cycle.
//
//holistic:noalloc
func (o *Observer) Cycle(cycle, workers, refinements, merged, wallNs int64) {
	if o == nil {
		return
	}
	o.Flight.RecordCycle(cycle, workers, refinements, merged, wallNs)
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

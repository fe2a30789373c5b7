// Package flight is the black-box flight recorder: a bounded,
// lock-free ring of fixed-layout binary events capturing the adaptive
// decisions — representation and strategy choices with their stat
// inputs, holistic-daemon refinement steps, checkpoints and recoveries —
// and per-query timings that led up to an anomaly or crash. Recording
// is wait-free and allocation-free; reading (Snapshot/Encode) is a
// cold-path operation that tolerates concurrent writers by discarding
// torn slots.
//
// The package sits beside the telemetry core: it imports obs (for the
// histogram digests the watchdog consumes) and nothing else internal,
// so every layer — query runner, daemon, durability — can record into
// it without import cycles.
package flight

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the event family. The zero value is reserved as
// "never written" so unused ring slots are self-describing.
type Kind uint8

const (
	// EvQuery is one terminal query: code is the obs.Op, args are
	// [query seq, total ns, drive ns, refine ns, result].
	EvQuery Kind = 1 + iota
	// EvRep is a representation decision: code is the obs.Rep, args
	// are [query seq, estimated driving rows, conjuncts].
	EvRep
	// EvStrategy is a physical strategy decision: code is the
	// obs.Strat, args are [query seq, stat0, stat1] where stat0/stat1
	// are the float64 bit patterns of the two dominant decision inputs
	// (key-order span and selected rows for grouping; left and right
	// key-order spans for joins).
	EvStrategy
	// EvRefine is one holistic idle refinement: id is the interned
	// attribute name, args are [refined, merged updates, attempts,
	// distance-to-optimal bits, pieces].
	EvRefine
	// EvCycle is one daemon cycle: args are [cycle, workers,
	// refinements, merged updates, wall ns].
	EvCycle
	// EvWALRotate is reserved: nothing records it, but the constant
	// keeps the later kinds' numbers, which dumps on disk carry.
	EvWALRotate
	// EvCheckpoint is a committed snapshot generation: args are
	// [generation, records since previous, duration ns, bytes written].
	EvCheckpoint
	// EvRecovery is one boot-time recovery: args are [generation,
	// replayed records, torn tail (0/1), restored indexes, dropped
	// indexes].
	EvRecovery
	// EvAnomaly is a watchdog trigger: code is the Trigger, args are
	// [window p99 ns, baseline p99 ns, convergence ratio bits, worker
	// panics (the daemon's running count, on worker_panic only), window
	// samples].
	EvAnomaly
)

var kindNames = [...]string{
	EvQuery:      "query",
	EvRep:        "rep",
	EvStrategy:   "strategy",
	EvRefine:     "refine",
	EvCycle:      "cycle",
	EvWALRotate:  "wal_rotate",
	EvCheckpoint: "checkpoint",
	EvRecovery:   "recovery",
	EvAnomaly:    "anomaly",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// slot is one ring entry. Every field is atomic so concurrent
// record/snapshot stays race-detector clean; seq is the publication
// stamp (stored last, cleared first) that lets readers detect torn
// slots. The layout is exactly 64 bytes: one cache line per event.
type slot struct {
	seq  atomic.Uint64
	t    atomic.Int64
	meta atomic.Uint64 // kind<<40 | code<<32 | id
	args [5]atomic.Int64
}

// Event is one decoded flight-recorder event.
type Event struct {
	Seq  uint64
	T    int64 // nanoseconds since the recorder's epoch
	Kind Kind
	Code uint8
	ID   uint32
	Args [5]int64
}

// DefaultEvents is the ring capacity used when none is configured:
// 4096 events x 64 bytes = 256 KiB of history.
const DefaultEvents = 4096

// Recorder is the lock-free event ring. The zero value is unusable;
// construct with NewRecorder. A nil *Recorder is a valid no-op target
// for every Record method, so call sites need no enable checks.
type Recorder struct {
	epoch time.Time
	mask  uint64
	head  atomic.Uint64 // last claimed sequence number; 0 = empty
	slots []slot

	internMu sync.Mutex
	internID map[string]uint32
	names    atomic.Pointer[[]string] // id -> name, copy-on-write
}

// NewRecorder returns a recorder holding the most recent `events`
// entries (rounded up to a power of two, minimum 64). events <= 0
// selects DefaultEvents.
func NewRecorder(events int) *Recorder {
	if events <= 0 {
		events = DefaultEvents
	}
	capacity := 64
	for capacity < events {
		capacity <<= 1
	}
	r := &Recorder{
		epoch:    time.Now(),
		mask:     uint64(capacity - 1),
		slots:    make([]slot, capacity),
		internID: make(map[string]uint32),
	}
	names := []string{"?"} // id 0 = unknown
	r.names.Store(&names)
	return r
}

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Head returns the sequence number of the most recently claimed event;
// events with Seq <= Head() have been recorded (though the oldest may
// have been overwritten).
func (r *Recorder) Head() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// record claims the next slot and publishes one event. The slot's
// stamp is cleared before the payload is written and set after, so a
// concurrent Snapshot either sees the complete event or skips it.
//
//holistic:noalloc
func (r *Recorder) record(kind Kind, code uint8, id uint32, a0, a1, a2, a3, a4 int64) {
	if r == nil {
		return
	}
	r.recordAt(time.Now(), kind, code, id, a0, a1, a2, a3, a4)
}

// recordAt is record stamped with a clock reading the caller already
// took.
//
//holistic:noalloc
func (r *Recorder) recordAt(at time.Time, kind Kind, code uint8, id uint32, a0, a1, a2, a3, a4 int64) {
	t := at.Sub(r.epoch).Nanoseconds()
	seq := r.head.Add(1)
	s := &r.slots[seq&r.mask]
	s.seq.Store(0)
	s.t.Store(t)
	s.meta.Store(uint64(kind)<<40 | uint64(code)<<32 | uint64(id))
	s.args[0].Store(a0)
	s.args[1].Store(a1)
	s.args[2].Store(a2)
	s.args[3].Store(a3)
	s.args[4].Store(a4)
	s.seq.Store(seq)
}

// RecordQuery records one terminal query with its per-stage split,
// stamped with the clock reading that closed the query's bracket (so a
// query costs one reading at each end, not one per consumer).
//
//holistic:noalloc
func (r *Recorder) RecordQuery(at time.Time, op uint8, qseq uint64, totalNS, driveNS, refineNS, result int64) {
	if r == nil {
		return
	}
	r.recordAt(at, EvQuery, op, 0, int64(qseq), totalNS, driveNS, refineNS, result)
}

// RecordRep records a representation decision and its estimate input.
//
//holistic:noalloc
func (r *Recorder) RecordRep(rep uint8, qseq uint64, estDriving int64, conjuncts int64) {
	r.record(EvRep, rep, 0, int64(qseq), estDriving, conjuncts, 0, 0)
}

// RecordStrategy records a physical strategy decision with the two
// dominant stat inputs as float64 bit patterns.
//
//holistic:noalloc
func (r *Recorder) RecordStrategy(strat uint8, qseq uint64, stat0, stat1 float64) {
	r.record(EvStrategy, strat, 0, int64(qseq), int64(f64bits(stat0)), int64(f64bits(stat1)), 0, 0)
}

// RecordRefine records one idle refinement of the attribute with
// interned id.
//
//holistic:noalloc
func (r *Recorder) RecordRefine(id uint32, refined, merged, attempts int64, distance float64, pieces int64) {
	r.record(EvRefine, 0, id, refined, merged, attempts, int64(f64bits(distance)), pieces)
}

// RecordCycle records one completed daemon cycle.
//
//holistic:noalloc
func (r *Recorder) RecordCycle(cycle, workers, refinements, merged, wallNS int64) {
	r.record(EvCycle, 0, 0, cycle, workers, refinements, merged, wallNS)
}

// RecordCheckpoint records a committed snapshot generation.
//
//holistic:noalloc
func (r *Recorder) RecordCheckpoint(gen, records, bytes, durNS int64) {
	r.record(EvCheckpoint, 0, 0, gen, records, durNS, bytes, 0)
}

// RecordRecovery records a boot-time recovery result.
//
//holistic:noalloc
func (r *Recorder) RecordRecovery(gen, replayed int64, torn bool, restored, dropped int64) {
	t := int64(0)
	if torn {
		t = 1
	}
	r.record(EvRecovery, 0, 0, gen, replayed, t, restored, dropped)
}

// RecordAnomaly records a watchdog trigger.
//
//holistic:noalloc
func (r *Recorder) RecordAnomaly(trig Trigger, p99NS, baseNS int64, conv float64, panics, samples int64) {
	r.record(EvAnomaly, uint8(trig), 0, p99NS, baseNS, int64(f64bits(conv)), panics, samples)
}

// Intern maps an attribute name to a stable id for EvRefine events.
// It allocates on first sight of a name (cold path); the id->name
// table is copy-on-write so decoding never takes the lock.
func (r *Recorder) Intern(name string) uint32 {
	if r == nil {
		return 0
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if id, ok := r.internID[name]; ok {
		return id
	}
	old := *r.names.Load()
	id := uint32(len(old))
	r.internID[name] = id
	next := make([]string, len(old)+1)
	copy(next, old)
	next[id] = name
	r.names.Store(&next)
	return id
}

// Names returns the intern table (id -> name). The returned slice is
// immutable.
func (r *Recorder) Names() []string {
	if r == nil {
		return nil
	}
	return *r.names.Load()
}

// Name resolves an interned id; unknown ids return "?".
func (r *Recorder) Name(id uint32) string {
	names := r.Names()
	if int(id) < len(names) {
		return names[id]
	}
	return "?"
}

// Snapshot returns the ring's current contents in sequence order,
// oldest first. Slots being concurrently overwritten are skipped; the
// result is therefore a consistent (possibly slightly shorter) view of
// the most recent events.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	head := r.head.Load()
	if head == 0 {
		return nil
	}
	capacity := uint64(len(r.slots))
	lo := uint64(1)
	if head > capacity {
		lo = head - capacity + 1
	}
	events := make([]Event, 0, head-lo+1)
	for seq := lo; seq <= head; seq++ {
		s := &r.slots[seq&r.mask]
		if s.seq.Load() != seq {
			continue // torn or already overwritten
		}
		var e Event
		e.Seq = seq
		e.T = s.t.Load()
		meta := s.meta.Load()
		for i := range e.Args {
			e.Args[i] = s.args[i].Load()
		}
		if s.seq.Load() != seq {
			continue // overwritten mid-read
		}
		e.Kind = Kind(meta >> 40)
		e.Code = uint8(meta >> 32)
		e.ID = uint32(meta)
		events = append(events, e)
	}
	return events
}

// Package holistic implements the paper's primary contribution: an
// always-on self-tuning daemon that detects idle CPU resources and spends
// them on incremental refinement of the adaptive index space, in parallel
// with — and without disturbing — user queries (Section 4).
//
// The tuning cycle (Figure 2):
//
//	loop:
//	    monitor CPU utilization over one interval
//	    n := number of idle hardware contexts
//	    if n == 0: continue
//	    activate n holistic workers
//	    each worker runs the IdleFunction:
//	        pick an index I from the index space IS (strategy W1-W4)
//	        repeat x times:
//	            crack I at a random pivot in its value domain
//	            (try-latch; on a held latch re-roll the pivot, Figure 3)
//	            merge pending updates of the pivot's piece
//	        update statistics; move I to Coptimal when d(I,Iopt) = 0
//	    wait for all workers; repeat
//
// The index space, statistics and strategies live in internal/stats; the
// physical refinement machinery in internal/cracking; the idle-detection
// signal in internal/cpu.
package holistic

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/obs/observer"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

// Config tunes the daemon.
type Config struct {
	// Interval is the CPU-load measurement window between tuning cycles.
	// The paper uses 1 second ("the time limit that gives proper kernel
	// statistics"); reduced-scale benchmarks and tests use milliseconds
	// together with the in-process load accountant.
	Interval time.Duration
	// Refinements is x, the number of index refinements each activated
	// worker performs (Figure 2). The paper's sweep (Figure 15) found
	// x = 16 best on its hardware; that is the default.
	Refinements int
	// Strategy picks the index-decision strategy; default W4 (random),
	// the paper's robust choice.
	Strategy stats.Strategy
	// Seed seeds worker pivot RNGs.
	Seed int64
	// StorageBudget bounds the materialized index space in bytes;
	// AdmitIndex evicts LFU victims to stay below it and hands them to
	// the caller, which frees them. 0 = unlimited.
	StorageBudget int64
}

func (c *Config) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Refinements <= 0 {
		c.Refinements = 16
	}
	if c.Strategy == 0 {
		c.Strategy = stats.W4
	}
}

// CycleTotals accumulates over every cycle ever run; the flight ring's
// EvCycle events hold the recent cycles one by one.
type CycleTotals struct {
	// Cycles is the number of activations of the indexing thread.
	Cycles int64 `json:"cycles"`
	// Workers sums the workers activated across all cycles.
	Workers int64 `json:"workers"`
	// WorkerTime sums all workers' response times.
	WorkerTime time.Duration `json:"worker_time_ns"`
	// Wall sums the work-phase wall-clock durations.
	Wall time.Duration `json:"wall_ns"`
	// Refinements and MergedUpdates sum the per-cycle counts.
	Refinements   int64 `json:"refinements"`
	MergedUpdates int64 `json:"merged_updates"`
}

// Daemon is the holistic indexing thread plus its worker pool.
type Daemon struct {
	cfg Config
	reg *stats.Registry
	mon cpu.Monitor

	// admitMu makes an admission one step: the budget check, the
	// evictions it forces and the registration.
	admitMu sync.Mutex

	cycleMu sync.Mutex
	totals  CycleTotals

	totalAttempts atomic.Int64
	busyRerolls   atomic.Int64

	// workerPanics counts refinement workers that panicked and were
	// contained; lastPanic keeps the most recent reason for the
	// convergence report.
	workerPanics atomic.Int64
	panicMu      sync.Mutex
	lastPanic    string

	// slotMu serializes cycles (RunCycleNow may race the indexing
	// thread) and guards slots, one per worker, kept across cycles, and
	// cycle, the next cycle's number: its one source, which the workers'
	// pivot RNG seeds derive from and RestoreTotals resumes.
	slotMu sync.Mutex
	slots  []workerSlot
	cycle  int64

	// testRefineHook, when set before Start, runs at the top of every
	// worker activation; the panic-containment test injects through it.
	testRefineHook func()

	// ob is the store's observer: cycles, refinement passes and pivot
	// positions go to it. SetObserver may be called while the daemon
	// runs (benchmarks and tests attach late), so it is swapped
	// atomically; a nil observer is a no-op for every call.
	ob atomic.Pointer[observer.Observer]

	stop chan struct{}
	done chan struct{}

	startOnce, stopOnce sync.Once
}

// New creates a daemon over the given index space and CPU monitor.
func New(reg *stats.Registry, mon cpu.Monitor, cfg Config) *Daemon {
	cfg.fillDefaults()
	return &Daemon{
		cfg:  cfg,
		reg:  reg,
		mon:  mon,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Registry exposes the index space the daemon tunes.
func (d *Daemon) Registry() *stats.Registry { return d.reg }

// SetObserver attaches the observer cycles and refinement steps record
// into (nil detaches). Safe to call concurrently with a running daemon.
func (d *Daemon) SetObserver(ob *observer.Observer) { d.ob.Store(ob) }

// AdmitIndex registers a new adaptive index and its pending updates
// within the storage budget, evicting least-frequently-used indices if
// needed (Section 4.2, Storage Constraints). It returns the entry and the
// evicted ones: they have left the index space, and the caller owning
// them drops them so their memory is freed.
func (d *Daemon) AdmitIndex(name string, col *cracking.Column, pend *updates.Pending, potential bool) (*stats.Entry, []*stats.Entry) {
	d.admitMu.Lock()
	defer d.admitMu.Unlock()
	var evicted []*stats.Entry
	if d.cfg.StorageBudget > 0 {
		need := col.SizeBytes()
		for d.reg.Len() > 0 && d.reg.TotalSizeBytes()+need > d.cfg.StorageBudget {
			v := d.reg.EvictLFU()
			if v == nil {
				break
			}
			evicted = append(evicted, v)
		}
	}
	return d.reg.Add(name, col, pend, potential), evicted
}

// Start launches the holistic indexing thread. It is idempotent.
func (d *Daemon) Start() {
	d.startOnce.Do(func() {
		go d.run()
	})
}

// Stop terminates the tuning loop and waits for in-flight workers. It is
// idempotent and safe to call without Start (the daemon then just never
// runs).
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.startOnce.Do(func() { close(d.done) }) // never started: unblock Wait
	<-d.done
}

// run is the holistic indexing thread (Figure 2).
func (d *Daemon) run() {
	defer close(d.done)
	timer := time.NewTimer(d.cfg.Interval)
	defer timer.Stop()
	for {
		// Measure CPU utilization within the next interval.
		timer.Reset(d.cfg.Interval)
		select {
		case <-d.stop:
			return
		case <-timer.C:
		}
		if n := d.mon.IdleContexts(); n > 0 {
			d.runCycle(n)
		}
	}
}

// containPanic is the deferred recovery barrier of one worker: the panic
// is counted and recorded, and the daemon moves on to the next cycle
// instead of taking down the process.
func (d *Daemon) containPanic() {
	r := recover()
	if r == nil {
		return
	}
	d.workerPanics.Add(1)
	d.panicMu.Lock()
	d.lastPanic = fmt.Sprint(r)
	d.panicMu.Unlock()
}

// WorkerPanics returns how many worker activations panicked and were
// contained.
func (d *Daemon) WorkerPanics() int64 { return d.workerPanics.Load() }

// LastPanic returns the reason of the most recent contained panic.
func (d *Daemon) LastPanic() string {
	d.panicMu.Lock()
	defer d.panicMu.Unlock()
	return d.lastPanic
}

// RestoreTotals reinstates cumulative counters from a recovered
// snapshot, so convergence telemetry continues across restarts instead
// of resetting to zero.
func (d *Daemon) RestoreTotals(t CycleTotals, attempts, busyRerolls int64) {
	d.slotMu.Lock()
	d.cycle = t.Cycles
	d.slotMu.Unlock()
	d.cycleMu.Lock()
	d.totals = t
	d.cycleMu.Unlock()
	d.totalAttempts.Store(attempts)
	d.busyRerolls.Store(busyRerolls)
}

// workerSlot is what one worker of a cycle owns: its pivot RNG and what
// it reports back.
type workerSlot struct {
	rng             *rand.Rand
	time            time.Duration
	refined, merged int
}

// runCycle numbers the next cycle, activates n workers and waits for all
// of them to finish. The workers run through column.ForChunks, so they
// count as busy contexts for every daemon in the process. Once they have
// returned, a worker that panicked is reported to the observer, which
// dumps the ring for it.
func (d *Daemon) runCycle(n int) {
	d.slotMu.Lock()
	cycle := d.cycle
	d.cycle++
	before := d.workerPanics.Load()
	for len(d.slots) < n {
		d.slots = append(d.slots, workerSlot{rng: rand.New(rand.NewSource(0))})
	}
	slots := d.slots[:n]
	start := time.Now()
	column.ForChunks(n, n, 1, func(w, _, _ int) {
		s := &slots[w]
		s.refined, s.merged = 0, 0
		t0 := time.Now()
		defer func() { s.time = time.Since(t0) }()
		defer d.containPanic()
		s.rng.Seed(d.cfg.Seed + cycle*1024 + int64(w))
		s.refined, s.merged = d.idleFunction(s.rng)
	})

	wall := time.Since(start)
	var workerTime time.Duration
	var refined, merged int64
	for _, s := range slots {
		workerTime += s.time
		refined += int64(s.refined)
		merged += int64(s.merged)
	}
	panics := d.workerPanics.Load()
	d.slotMu.Unlock()
	d.cycleMu.Lock()
	d.totals.Cycles++
	d.totals.Workers += int64(n)
	d.totals.WorkerTime += workerTime
	d.totals.Wall += wall
	d.totals.Refinements += refined
	d.totals.MergedUpdates += merged
	d.cycleMu.Unlock()
	ob := d.ob.Load()
	ob.Cycle(cycle, int64(n), refined, merged, wall.Nanoseconds())
	if panics > before {
		ob.Panicked(panics)
	}
}

// maxAttemptsPerRefinement bounds the pivot re-rolls of one refinement
// slot so a worker on a fully-optimal or fully-contended index terminates.
const maxAttemptsPerRefinement = 16

// idleFunction is one worker's activation (Figure 2, *Idle Function):
// pick an index, refine it x times at random pivots, merge pending
// updates, update statistics.
func (d *Daemon) idleFunction(rng *rand.Rand) (refined, mergedUpdates int) {
	if d.testRefineHook != nil {
		d.testRefineHook()
	}
	if merged := d.drainOptimal(); merged > 0 {
		return 0, merged
	}
	e := d.reg.PickForRefinement(d.cfg.Strategy)
	if e == nil {
		return 0, 0
	}
	minPiece := d.reg.L1Values()
	t0 := time.Now()
	attempts := int64(0)
	defer func() {
		// This activation's wall time is idle-context time invested in e.
		e.RecordRefined(time.Since(t0).Nanoseconds(), int64(refined))
		d.ob.Load().Refined(e, int64(refined), int64(mergedUpdates), attempts, d.reg.Distance(e), int64(e.Col.Pieces()))
	}()

	for i := 0; i < d.cfg.Refinements; i++ {
		done := false
		for attempt := 0; attempt < maxAttemptsPerRefinement && !done; attempt++ {
			if e.Col.Separated() {
				// Every piece holds one distinct value: nothing to crack,
				// now or ever, though N/pieces may never reach |L1| (a
				// key with fewer distinct values than N/|L1|). Retire the
				// index instead of picking it every cycle.
				d.reg.MarkOptimal(e)
				return refined, mergedUpdates
			}
			lo, hi := e.Col.Domain()
			pivot := cracking.UniformIn(rng, lo, hi)
			d.totalAttempts.Add(1)
			attempts++
			switch e.Col.TryRefineAt(pivot, minPiece) {
			case cracking.RefineDone:
				refined++
				done = true
			case cracking.RefineBusy:
				// Re-roll another random pivot instead of waiting for
				// the latch (Figure 3).
				d.busyRerolls.Add(1)
			case cracking.RefineExact, cracking.RefineSmall:
				// Piece needs no work; re-roll.
			}
			if e.Pend != nil && e.Pend.Len() > 0 {
				plo, phi := e.Col.PieceSpan(pivot)
				mergedUpdates += e.Pend.MergeRange(e.Col, plo, phi)
			}
		}
		if !done {
			// Could not find a crackable piece: the index is (close to)
			// optimal or fully latched; stop early.
			break
		}
	}
	d.reg.MarkOptimalIfDone(e)
	return refined, mergedUpdates
}

// drainOptimal merges every pending update of one optimal index that has
// any, and returns how many it merged. A worker merges updates on the way
// of refining, in the piece its pivot falls into, but no worker picks an
// optimal index for refinement again: without this, updates that arrive
// once an index is optimal wait for the queries that touch their values.
func (d *Daemon) drainOptimal() int {
	for _, e := range d.reg.Entries() {
		if e.Pend != nil && e.Pend.Len() > 0 && e.State() == stats.Optimal {
			return e.Pend.MergeAll(e.Col)
		}
	}
	return 0
}

// CycleTotals returns the cumulative cycle aggregates.
func (d *Daemon) CycleTotals() CycleTotals {
	d.cycleMu.Lock()
	defer d.cycleMu.Unlock()
	return d.totals
}

// Refinements returns the total number of successful refinement actions.
func (d *Daemon) Refinements() int64 { return d.CycleTotals().Refinements }

// Attempts returns the total refinement attempts (including re-rolls).
func (d *Daemon) Attempts() int64 { return d.totalAttempts.Load() }

// BusyRerolls returns how often a worker re-rolled its pivot because a
// piece latch was held — the contention signal of Figure 3.
func (d *Daemon) BusyRerolls() int64 { return d.busyRerolls.Load() }

// RunCycleNow synchronously executes one tuning cycle with n workers,
// bypassing the monitor and interval. Benchmarks that need deterministic
// refinement volume (e.g. the x-sweep of Figure 15) use it; production
// callers use Start/Stop.
func (d *Daemon) RunCycleNow(n int) {
	d.runCycle(max(n, 1))
}

package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/obs/observer"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

// pathKind is the order a mode gives an attribute.
type pathKind uint8

const (
	kindScan pathKind = iota
	kindSorted
	kindCracker
	kindCCGI
)

// Executor answers range selections over the attributes of one table. It
// keeps one record per attribute (attribute, record.go) — its base column,
// access path, update overlay and pending queue, each behind that
// attribute's own lock — and the mode is only the policy that decides
// which kind of path an attribute gets and when it is built (see the
// package comment). Every terminal — Count, Sum, MinMax, SelectRows,
// SelectBitmap, WalkKeyOrder — is one walk of that path through run.
type Executor struct {
	table   *Table
	label   string
	kind    pathKind
	threads int             // parallelism of scans, sorts and CCGI chunks
	crack   cracking.Config // cracker columns and CCGI chunks
	buckets int             // CCGI coarse pre-partitioning
	epoch   int             // online indexing: queries answered by scans before the sort

	// ob receives what run's epilogue reports (select latency, merged
	// updates, key-order walks, the ledger's drive credit) and the
	// cracker builds; nil leaves the executor uninstrumented.
	ob *observer.Observer

	// attrs holds the record of every column of the table. It is filled
	// when the executor is built and never written afterwards, so it is
	// read without a lock.
	attrs map[string]*attribute

	builds   atomic.Int64 // access-path builds started: the seed sequence of cracker columns
	queries  atomic.Int64 // online indexing: queries seen so far
	scanning atomic.Bool  // online indexing: still inside the monitoring epoch

	// Holistic indexing: the daemon refines the cracker columns in idle
	// contexts.
	daemon *holistic.Daemon
}

// AdaptiveExecutor is the cracking modes' executor by its former name.
type AdaptiveExecutor = Executor

// ErrNoUpdatePath is returned by Insert, Delete and Update under modes
// without pending-update machinery (their index is the data).
var ErrNoUpdatePath = errors.New("engine: mode has no update path")

func newExecutor(t *Table, label string, kind pathKind, threads int) *Executor {
	e := &Executor{
		table:   t,
		label:   label,
		kind:    kind,
		threads: max(threads, 1),
		attrs:   make(map[string]*attribute, len(t.order)),
	}
	for _, name := range t.order {
		e.attrs[name] = newAttribute(t.byName[name])
	}
	return e
}

// NewScanExecutor answers every query with a parallel scan: the "no
// indexing" baseline of Figure 6(a).
func NewScanExecutor(t *Table, threads int) *Executor {
	return newExecutor(t, "no indexing", kindScan, threads)
}

// NewOfflineExecutor answers queries by binary search over sorted
// columns. PrepareAll pays the sorting cost up front; otherwise the first
// query on each attribute does.
func NewOfflineExecutor(t *Table, threads int) *Executor {
	return newExecutor(t, "offline indexing", kindSorted, threads)
}

// NewOnlineExecutor monitors the workload for an epoch of queries
// (answered by scans; the paper uses 100), then sorts every column — the
// COLT-style online indexing baseline of Section 5.1. The sorting cost
// lands inside the first post-epoch query, as in the paper.
func NewOnlineExecutor(t *Table, threads, epoch int) *Executor {
	e := newExecutor(t, "online indexing", kindSorted, threads)
	if epoch < 1 {
		epoch = 100
	}
	e.epoch = epoch
	e.scanning.Store(true)
	return e
}

// NewAdaptiveExecutor is database cracking: the first query on an
// attribute creates its cracker column, every query refines it. With
// cfg.ParallelWorkers > 1 it is the paper's PVDC, with cfg.Stochastic
// PVSDC. Its cracker columns always carry row ids — the paper's (oid,
// value) pairs — whatever cfg.WithRows says: writes, materialized
// selects and key-order walks all name rows.
func NewAdaptiveExecutor(t *Table, cfg cracking.Config, label string) *Executor {
	if label == "" {
		label = "adaptive indexing"
	}
	e := newExecutor(t, label, kindCracker, 1)
	e.crack = cfg
	e.crack.WithRows = true
	return e
}

// NewCCGIExecutor is the mP-CCGI baseline (Section 5.2) with the given
// chunk parallelism and coarse-partitioning bucket count.
func NewCCGIExecutor(t *Table, threads, buckets int, cfg cracking.Config) *Executor {
	e := newExecutor(t, "mP-CCGI", kindCCGI, threads)
	e.crack, e.buckets = cfg, buckets
	e.crack.WithRows = true
	return e
}

// HolisticConfig assembles the pieces of a holistic executor.
type HolisticConfig struct {
	// Cracking configures the user-query cracker columns (user
	// parallelism, RefineWorkers for the daemon's cracks).
	Cracking cracking.Config
	// Daemon configures the tuning cycle.
	Daemon holistic.Config
	// L1Values is the optimal piece size (Equation 1).
	L1Values int
	// Contexts is the hardware-context budget of the load accountant
	// (default 2).
	Contexts int
	// StatsSeed seeds the W4 strategy RNG.
	StatsSeed int64
	// Monitor overrides the load accountant as the daemon's idle signal;
	// benchmarks use cpu.Fixed to pin the uXwYxZ thread distributions.
	Monitor cpu.Monitor
}

// NewHolisticExecutor is the adaptive executor plus the holistic indexing
// daemon, started here: user queries crack while the daemon exploits idle
// contexts for auxiliary refinements.
func NewHolisticExecutor(t *Table, cfg HolisticConfig) *Executor {
	e := NewAdaptiveExecutor(t, cfg.Cracking, "holistic indexing")
	mon := cfg.Monitor
	if mon == nil {
		if cfg.Contexts < 1 {
			cfg.Contexts = 2
		}
		mon = cpu.NewLoadAccountant(cfg.Contexts)
	}
	e.daemon = holistic.New(stats.NewRegistry(cfg.L1Values, cfg.StatsSeed), mon, cfg.Daemon)
	e.daemon.Start()
	return e
}

// Label names the mode as the paper's figures do.
func (e *Executor) Label() string { return e.label }

// SetObserver attaches the store's observer to the executor and its
// daemon; nil detaches. Attach before the first query.
func (e *Executor) SetObserver(ob *observer.Observer) {
	e.ob = ob
	if e.daemon != nil {
		e.daemon.SetObserver(ob)
	}
}

// Daemon returns the holistic indexing daemon, nil under every other mode.
func (e *Executor) Daemon() *holistic.Daemon { return e.daemon }

// Close stops the daemon, if any.
func (e *Executor) Close() {
	if e.daemon != nil {
		e.daemon.Stop()
	}
}

// errf keeps the formatting of the cold error paths behind one reviewed
// allocation boundary.
//
//holistic:alloc-ok error paths format their diagnostics
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// attr returns the record of the named attribute.
//
//holistic:noalloc
func (e *Executor) attr(name string) (*attribute, error) {
	if a := e.attrs[name]; a != nil {
		return a, nil
	}
	return nil, errf("engine: unknown attribute %q", name)
}

// lookup returns attr's access path if built; it never builds or waits.
//
//holistic:noalloc
func (e *Executor) lookup(attr string) accessPath {
	if a := e.attrs[attr]; a != nil {
		return a.current()
	}
	return nil
}

// stale reports whether p no longer is what the policy gives its
// attribute: a scan path once online indexing's epoch is over.
//
//holistic:noalloc
func (e *Executor) stale(p accessPath) bool {
	_, scan := p.(*scanPath)
	return scan && e.kind != kindScan && !e.scanning.Load()
}

// path returns the access path of a, building it when the policy says
// so: absent (first touch, or evicted) or stale. A published path is read
// without a lock; a build runs outside a.mu behind the attribute's latch,
// and callers that find one in flight wait for it and use its result. A
// cracker column is built already cracked on [lo, hi), the bounds of the
// select that needs it (none when lo >= hi); potential marks a build
// ahead of any query driving it.
//
//holistic:noalloc
func (e *Executor) path(a *attribute, lo, hi int64, potential bool) accessPath {
	if p := a.current(); p != nil && !e.stale(p) {
		return p
	}
	a.mu.Lock()
	for {
		if p := a.current(); p != nil && !e.stale(p) {
			a.mu.Unlock()
			return p
		}
		inFlight := a.building
		if inFlight == nil {
			break
		}
		a.mu.Unlock()
		<-inFlight
		a.mu.Lock()
	}
	done := newLatch()
	a.building = done
	pend := a.pend
	a.mu.Unlock()
	return e.build(a, done, pend, lo, hi, potential)
}

//holistic:alloc-ok a first touch allocates its build latch
func newLatch() chan struct{} { return make(chan struct{}) }

// build builds, admits and publishes the access path of a whose latch
// path set; pend is the attribute's pending queue, which a cracker column
// built from the base column takes over.
//
//holistic:alloc-ok a first touch builds the attribute's access path
func (e *Executor) build(a *attribute, done chan struct{}, pend *updates.Pending, lo, hi int64, potential bool) accessPath {
	defer func() {
		a.mu.Lock()
		a.building = nil
		a.mu.Unlock()
		close(done)
	}()
	base := a.base.Values()
	kind := e.kind
	if e.scanning.Load() {
		kind = kindScan
	}
	cfg := e.crack
	cfg.Seed += e.builds.Add(1) - 1

	var p accessPath
	switch kind {
	case kindScan:
		p = &scanPath{vals: base}
	case kindSorted:
		// Always with row ids: a copy without them would be sorted again
		// by the first select that needs rows.
		p = &sortedPath{col: sortidx.BuildWithRows(a.name, base, e.threads)}
	case kindCracker:
		col := cracking.NewCracked(a.name, base, cfg, lo, hi)
		if !potential {
			e.ob.CrackerBuilt()
		}
		p = &crackerPath{col: col, pend: pend, entry: e.admit(col, pend, a.name, potential)}
	case kindCCGI:
		p = &ccgiPath{idx: ccgi.New(a.name, base, e.threads, e.buckets, e.crack)}
	}
	e.publish(a, p)
	return p
}

// admit registers a built or restored cracker column and the pending
// queue it was built with in the daemon's index space, through its
// storage budget, and frees the indexes the budget evicts. It returns the
// column's statistics entry, nil without a daemon.
func (e *Executor) admit(col *cracking.Column, pend *updates.Pending, attr string, potential bool) *stats.Entry {
	if e.daemon == nil {
		return nil
	}
	entry, evicted := e.daemon.AdmitIndex(attr, col, pend, potential)
	for _, v := range evicted {
		e.attrs[v.Name].evict(v)
	}
	return entry
}

// publish makes p the current access path of a — unless p is a cracker
// column the storage budget evicted between its admission and now: the
// query that built it uses it once, and the attribute gets a fresh
// pending queue, since the column took the old one with it.
func (e *Executor) publish(a *attribute, p accessPath) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cp, ok := p.(*crackerPath); ok && cp.entry != nil && e.daemon.Registry().Get(a.name) != cp.entry {
		a.replayOverlay()
		return
	}
	a.path.Store(&p)
}

// tick advances online indexing's monitoring epoch by one query. The
// query that ends the epoch sorts every column before it is answered —
// enough workload knowledge obtained; the cost is paid inside it.
func (e *Executor) tick() {
	if e.queries.Add(1) > int64(e.epoch) && e.scanning.CompareAndSwap(true, false) {
		e.PrepareAll()
	}
}

// PrepareAll builds the access path of every attribute now: the offline
// physical-design step, assuming a-priori workload knowledge. Modes that
// index as a side effect of queries have nothing to prepare.
//
//holistic:alloc-ok sorts whole columns
func (e *Executor) PrepareAll() {
	if e.kind != kindSorted || e.scanning.Load() {
		return
	}
	for _, name := range e.table.order {
		e.path(e.attrs[name], 0, 0, false)
	}
}

// run is the one prologue and epilogue of every terminal: the busy-count
// bracket (the calling goroutine is one busy context while it answers;
// its fan-outs count themselves in column.ForChunks), the select-latency
// measurement, attribute validation, the empty-range guard, path
// resolution by the mode's policy, the walk, and the recording of what
// the walk reports back — one observer call, through which every door
// (Store range methods, conjunctive drives, join sides, Explain) credits
// the attribute's ledger. A declined key-order walk did no work and
// records nothing.
//
//holistic:noalloc
func (e *Executor) run(attr string, f fold) (fold, error) {
	cpu.Acquire(1)
	defer cpu.Release(1)
	var start time.Time
	if e.ob != nil {
		start = time.Now()
	}
	f, err := e.answer(attr, f)
	if e.ob != nil && (f.walked || f.op != opClusters) {
		e.ob.Select(attr, time.Since(start).Nanoseconds(), f.merged, f.walked, err == nil)
	}
	return f, err
}

// answer is the body of run between the brackets.
//
//holistic:noalloc
func (e *Executor) answer(attr string, f fold) (fold, error) {
	if e.epoch > 0 {
		e.tick()
	}
	a, err := e.attr(attr)
	if err != nil {
		return f, err
	}
	var p accessPath
	switch {
	case f.op == opClusters && e.kind != kindSorted:
		// Only sorted columns are built for a key-order walk; a cracker
		// that never drove a select (and was never admitted as a potential
		// index) means no key-ordered path, and the caller falls back.
		if p = a.current(); p == nil {
			return f, nil
		}
	case f.op != opClusters && f.lo >= f.hi:
		return f, nil // empty or inverted range: nothing qualifies, nothing to build
	default:
		p = e.path(a, f.lo, f.hi, false)
	}
	if f.op == opClusters {
		if _, f.walked = p.span(); !f.walked {
			return f, nil
		}
	}
	f.threads = e.threads
	return p.walk(f), nil
}

// Count answers "select count(*) from R where lo <= attr < hi".
//
//holistic:noalloc
func (e *Executor) Count(attr string, lo, hi int64) (int, error) {
	f, err := e.run(attr, fold{op: opCount, lo: lo, hi: hi})
	return f.n, err
}

// Sum answers "select sum(attr) from R where lo <= attr < hi".
//
//holistic:noalloc
func (e *Executor) Sum(attr string, lo, hi int64) (int64, error) {
	f, err := e.run(attr, fold{op: opSum, lo: lo, hi: hi})
	return f.sum, err
}

// MinMax answers "select min(attr), max(attr) from R where
// lo <= attr < hi"; ok is false when no tuple qualifies.
func (e *Executor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	f, err := e.run(attr, fold{op: opMinMax, lo: lo, hi: hi})
	return f.mn, f.mx, f.n > 0, err
}

// SelectRows materializes the base row ids of the qualifying tuples, in
// unspecified order — the position list late tuple reconstruction feeds
// to project operators. The result is caller-owned.
//
//holistic:alloc-ok materializes a caller-owned position list
func (e *Executor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	f, err := e.run(attr, fold{op: opRows, lo: lo, hi: hi})
	return f.rows, err
}

// SelectBitmap is SelectRows delivering a word-packed bitmap instead of a
// position list: bm is reset to cover the attribute's position universe
// (base rows plus rows appended by pending insertions) and gets one bit
// per qualifying row id. Callers pass a pooled bitmap, so a steady-state
// dense select allocates nothing.
//
//holistic:noalloc
func (e *Executor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	n := e.table.Rows()
	if a := e.attrs[attr]; a != nil {
		n = a.extent()
	}
	bm.Reset(n)
	_, err := e.run(attr, fold{op: opBitmap, lo: lo, hi: hi, bm: bm})
	return err
}

// WalkKeyOrder streams attr in key-clustered order: clusters of values
// with their aligned base row ids, every value of an earlier cluster
// strictly below every value of a later one (unordered inside a cluster).
// Sorted columns stream one cluster per run of equal values; cracker
// columns stream their pieces, merging any pending updates first. This is
// the access path of index-clustered grouping and merge joins — the
// holistic payoff, since refinement keeps shrinking the clusters. fn must
// not retain the slices. ok is false (and fn never called) when attr has
// no key-ordered access path; the caller falls back to hashing.
func (e *Executor) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (ok bool, err error) {
	f, err := e.run(attr, fold{op: opClusters, clusters: fn})
	return f.walked && err == nil, err
}

// KeyOrderSpan estimates the value span one streamed cluster of attr
// covers right now (sorted columns: 1; crackers: domain span divided by
// the piece count). ok is false when WalkKeyOrder would decline. The
// probe builds nothing and does not advance online indexing's epoch.
//
//holistic:noalloc
func (e *Executor) KeyOrderSpan(attr string) (span float64, ok bool) {
	a := e.attrs[attr]
	if a == nil {
		return 0, false
	}
	if p := a.current(); p != nil {
		return p.span()
	}
	// Offline indexing sorts on demand, so the path exists for every
	// attribute.
	return 1, e.kind == kindSorted && e.epoch == 0
}

// EstimateCount answers "how many tuples fall in [lo, hi) on attr, and
// how much would a select through its access path reorganize first" from
// the index structures without touching data, for the conjunctive
// planner's predicate ordering and its residual rule. ok is false with no
// basis for an estimate — no index on attr yet, or none ever — and the
// caller should fall back to a uniform guess; such an attribute has no
// path a residual conjunct could be selected through.
//
//holistic:noalloc
func (e *Executor) EstimateCount(attr string, lo, hi int64) (Estimate, bool) {
	if p := e.lookup(attr); p != nil {
		return p.estimate(lo, hi)
	}
	return Estimate{}, false
}

// Cracker returns (building if needed) the cracker column of attr — nil
// under modes that keep none; the bool reports whether it already existed.
func (e *Executor) Cracker(attr string) (*cracking.Column, bool, error) {
	a, err := e.attr(attr)
	if err != nil {
		return nil, false, err
	}
	if c := crackerOf(a.current()); c != nil {
		return c, true, nil
	}
	return crackerOf(e.path(a, 0, 0, false)), false, nil
}

// CrackerIfExists returns the cracker column of attr without creating one.
func (e *Executor) CrackerIfExists(attr string) *cracking.Column {
	return crackerOf(e.lookup(attr))
}

// crackerOf returns the cracker column of p, nil for any other path.
func crackerOf(p accessPath) *cracking.Column {
	if cp, ok := p.(*crackerPath); ok {
		return cp.col
	}
	return nil
}

// TotalPieces sums pieces over all cracker columns (Figure 6(c)).
func (e *Executor) TotalPieces() int {
	total := 0
	for _, a := range e.attrs {
		if c := crackerOf(a.current()); c != nil {
			total += c.Pieces()
		}
	}
	return total
}

// AddPotential registers an index on attr in the potential configuration
// so the daemon can refine it before any query arrives (Figure 9's
// idle-time prefill); a no-op for an attribute already indexed.
//
//holistic:noalloc
func (e *Executor) AddPotential(attr string) error {
	a, err := e.attr(attr)
	if err == nil {
		e.path(a, 0, 0, true)
	}
	return err
}

// NotePredicate admits attr, which a query used without driving its
// select, to the index space: under holistic indexing it joins the
// potential configuration (its cracker copy is built now, inside the
// caller's query) and its access statistics are bumped on the entry its
// path carries; without a daemon nothing happens. Callers admit only what
// a plan can use — every residual conjunct, and a group or join key only
// while the planner could walk it (query.walkable).
//
//holistic:noalloc
func (e *Executor) NotePredicate(attr string) error {
	if e.daemon == nil {
		return nil
	}
	a, err := e.attr(attr)
	if err != nil {
		return err
	}
	if cp, ok := e.path(a, 0, 0, true).(*crackerPath); ok && cp.entry != nil {
		cp.entry.RecordAccess(false)
	}
	return nil
}

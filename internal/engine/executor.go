package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/obs/observer"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
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
// keeps one access path per attribute; the mode is only the policy that
// decides which kind of path an attribute gets and when it is built (see
// the package comment). Every terminal — Count, Sum, MinMax, SelectRows,
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

	// mu guards the registry, never a build: building[attr] is closed when
	// the build of attr in flight is over, so other attributes' queries
	// and estimates do not wait for an O(N) build, and a second first
	// touch of attr builds nothing.
	mu       sync.Mutex
	paths    map[string]accessPath
	building map[string]chan struct{}
	queries  int  // online indexing: queries seen so far
	scanning bool // online indexing: still inside the monitoring epoch

	// writeMu serializes Insert, Delete and Update from resolving their
	// row to applying it; pendMu guards the update state of the cracking
	// modes and is held only for the overlay edit itself (overlay.go).
	writeMu sync.Mutex
	pendMu  sync.Mutex
	updates map[string]*attrUpdates

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
	return &Executor{
		table:    t,
		label:    label,
		kind:     kind,
		threads:  max(threads, 1),
		paths:    make(map[string]accessPath),
		building: make(map[string]chan struct{}),
		updates:  make(map[string]*attrUpdates),
	}
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
	e.epoch, e.scanning = epoch, true
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

// lookup returns attr's access path if built; it never builds or waits.
//
//holistic:noalloc
func (e *Executor) lookup(attr string) accessPath {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.paths[attr]
}

// stale reports whether p no longer is what the policy gives its
// attribute: a scan path once online indexing's epoch is over, or a
// sorted copy without row ids when the walk needs them (count-only
// workloads never sort pairs nor keep +4 bytes/value). Caller holds e.mu.
//
//holistic:noalloc
func (e *Executor) stale(p accessPath, needRows bool) bool {
	switch p := p.(type) {
	case *scanPath:
		return e.kind != kindScan && !e.scanning
	case *sortedPath:
		return needRows && !p.col.HasRows()
	}
	return false
}

// path returns the access path of attr, building it when the policy
// says so: absent (first touch) or stale. The build runs outside e.mu
// behind the per-attribute latch; callers that find one in flight wait
// for it and use its result. A cracker column is built already cracked
// on [lo, hi), the bounds of the select that needs it (none when
// lo >= hi); potential marks a build ahead of any query driving it.
//
//holistic:noalloc
func (e *Executor) path(attr string, lo, hi int64, needRows, potential bool) (accessPath, error) {
	e.mu.Lock()
	for {
		if p, ok := e.paths[attr]; ok && !e.stale(p, needRows) {
			e.mu.Unlock()
			return p, nil
		}
		inFlight, ok := e.building[attr]
		if !ok {
			break
		}
		e.mu.Unlock()
		<-inFlight
		e.mu.Lock()
	}
	err := e.known(attr)
	if err == nil {
		e.building[attr] = newLatch()
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return e.build(attr, lo, hi, needRows, potential), nil
}

//holistic:alloc-ok a first touch allocates its build latch
func newLatch() chan struct{} { return make(chan struct{}) }

// build builds, publishes and admits the access path whose build path
// registered as in flight.
//
//holistic:alloc-ok a first touch builds the attribute's access path
func (e *Executor) build(attr string, lo, hi int64, needRows, potential bool) accessPath {
	base := e.table.Column(attr).Values()
	e.mu.Lock()
	done := e.building[attr]
	kind := e.kind
	if e.scanning {
		kind = kindScan
	}
	cfg := e.crack
	cfg.Seed += int64(len(e.paths) + len(e.building) - 1)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.building, attr)
		e.mu.Unlock()
		close(done)
	}()

	var p accessPath
	var cp *crackerPath
	switch kind {
	case kindScan:
		p = &scanPath{vals: base}
	case kindSorted:
		if needRows {
			p = &sortedPath{col: sortidx.BuildWithRows(attr, base, e.threads)}
		} else {
			p = &sortedPath{col: sortidx.Build(attr, base, e.threads)}
		}
	case kindCracker:
		cp = &crackerPath{col: cracking.NewCracked(attr, base, cfg, lo, hi), pend: e.Pending(attr)}
		p = cp
	case kindCCGI:
		p = &ccgiPath{idx: ccgi.New(attr, base, e.threads, e.buckets, e.crack)}
	}
	e.mu.Lock()
	e.paths[attr] = p
	e.mu.Unlock()
	if cp != nil {
		if !potential {
			e.ob.CrackerBuilt()
		}
		e.admit(attr, cp, potential)
	}
	return p
}

// admit registers a built or restored cracker column with the daemon's
// index space (through its storage budget) and hands the daemon the
// attribute's pending updates, so workers merge them too.
func (e *Executor) admit(attr string, cp *crackerPath, potential bool) *stats.Entry {
	if e.daemon == nil {
		return nil
	}
	entry, _ := e.daemon.AdmitIndex(attr, cp.col, potential)
	e.daemon.AttachPending(attr, cp.pend)
	return entry
}

// tick advances online indexing's monitoring epoch by one query. The
// query that ends the epoch sorts every column before it is answered —
// enough workload knowledge obtained; the cost is paid inside it.
func (e *Executor) tick() {
	e.mu.Lock()
	e.queries++
	ends := e.scanning && e.queries > e.epoch
	if ends {
		e.scanning = false
	}
	e.mu.Unlock()
	if ends {
		e.PrepareAll()
	}
}

// PrepareAll builds the access path of every attribute now: the offline
// physical-design step, assuming a-priori workload knowledge. Modes that
// index as a side effect of queries have nothing to prepare.
//
//holistic:alloc-ok sorts whole columns
func (e *Executor) PrepareAll() {
	if e.kind != kindSorted || e.scanning {
		return
	}
	for _, name := range e.table.ColumnNames() {
		_, _ = e.path(name, 0, 0, false, false) // the table's own columns are known
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
	var p accessPath
	switch {
	case f.op == opClusters && e.kind != kindSorted:
		// Only sorted columns are built for a key-order walk; a cracker
		// that never drove a select (and was never admitted as a potential
		// index) means no key-ordered path, and the caller falls back.
		if p = e.lookup(attr); p == nil {
			return f, e.known(attr)
		}
	case f.op != opClusters && f.lo >= f.hi:
		return f, e.known(attr) // empty or inverted range: nothing qualifies, nothing to build
	default:
		var err error
		if p, err = e.path(attr, f.lo, f.hi, f.wantsRows(), false); err != nil {
			return f, err
		}
	}
	if f.op == opClusters {
		if _, f.walked = p.span(); !f.walked {
			return f, nil
		}
	}
	f.threads = e.threads
	f = p.walk(f)
	if e.daemon != nil && f.op != opClusters {
		e.daemon.Registry().RecordAccess(attr, f.exact)
	}
	return f, nil
}

// known returns the unknown-attribute error unless attr is a column.
//
//holistic:noalloc
func (e *Executor) known(attr string) error {
	if e.table.Column(attr) == nil {
		return errf("engine: unknown attribute %q", attr)
	}
	return nil
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
	bm.Reset(e.universe(attr))
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
	if p := e.lookup(attr); p != nil {
		return p.span()
	}
	// Offline indexing sorts on demand, so the path exists for every
	// attribute.
	if e.kind == kindSorted && e.epoch == 0 && e.table.Column(attr) != nil {
		return 1, true
	}
	return 0, false
}

// EstimateCount answers "how many tuples fall in [lo, hi) on attr" from
// the index structures without touching data, for the conjunctive
// planner's predicate ordering. exact reports a true count (sorted
// column, existing cracker boundaries); ok is false with no basis for an
// estimate — no index on attr yet, or none ever — and the caller should
// fall back to a uniform guess.
//
//holistic:noalloc
func (e *Executor) EstimateCount(attr string, lo, hi int64) (est float64, exact, ok bool) {
	if p := e.lookup(attr); p != nil {
		return p.estimate(lo, hi)
	}
	return 0, false, false
}

// Cracker returns (building if needed) the cracker column of attr — nil
// under modes that keep none; the bool reports whether it already existed.
func (e *Executor) Cracker(attr string) (*cracking.Column, bool, error) {
	if c := e.CrackerIfExists(attr); c != nil {
		return c, true, nil
	}
	_, err := e.path(attr, 0, 0, false, false)
	return e.CrackerIfExists(attr), false, err
}

// CrackerIfExists returns the cracker column of attr without creating one.
func (e *Executor) CrackerIfExists(attr string) *cracking.Column {
	if cp, ok := e.lookup(attr).(*crackerPath); ok {
		return cp.col
	}
	return nil
}

// TotalPieces sums pieces over all cracker columns (Figure 6(c)).
func (e *Executor) TotalPieces() int {
	total := 0
	for _, name := range e.table.ColumnNames() {
		if c := e.CrackerIfExists(name); c != nil {
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
	_, err := e.path(attr, 0, 0, false, true)
	return err
}

// NotePredicate admits attr, which a query used without driving its
// select, to the index space: under holistic indexing it joins the
// potential configuration (its cracker copy is built now, inside the
// caller's query) and its access statistics are bumped; without a daemon
// nothing happens. Callers admit only what a plan can use — every
// residual conjunct, and a group or join key only while the planner
// could walk it (query.walkable).
//
//holistic:noalloc
func (e *Executor) NotePredicate(attr string) error {
	if e.daemon == nil {
		return nil
	}
	if err := e.AddPotential(attr); err != nil {
		return err
	}
	e.daemon.Registry().RecordAccess(attr, false)
	return nil
}

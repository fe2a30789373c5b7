package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/obs"
	"holistic/internal/obs/econ"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

// ScanExecutor answers every query with a parallel scan: the "no
// indexing" baseline of Figure 6(a).
type ScanExecutor struct {
	table   *Table
	Threads int
	met     *obs.ExecMetrics
}

// SetExecMetrics implements Instrumented.
func (e *ScanExecutor) SetExecMetrics(m *obs.ExecMetrics) { e.met = m }

// NewScanExecutor builds the baseline over a table with the given scan
// parallelism (the paper scans with all 32 hardware contexts).
func NewScanExecutor(t *Table, threads int) *ScanExecutor {
	if threads < 1 {
		threads = 1
	}
	return &ScanExecutor{table: t, Threads: threads}
}

// Label implements Executor.
func (e *ScanExecutor) Label() string { return "no indexing" }

func (e *ScanExecutor) values(attr string) ([]int64, error) {
	c := e.table.Column(attr)
	if c == nil {
		return nil, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	return c.Values(), nil
}

// Count implements Executor.
func (e *ScanExecutor) Count(attr string, lo, hi int64) (int, error) {
	vals, err := e.values(attr)
	if err != nil {
		return 0, err
	}
	start := obsBegin(e.met)
	n := column.ParallelCountRange(vals, lo, hi, e.Threads)
	obsEnd(e.met, start)
	return n, nil
}

// Sum implements Executor: a parallel chunked fold over the base column.
func (e *ScanExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	vals, err := e.values(attr)
	if err != nil {
		return 0, err
	}
	start := obsBegin(e.met)
	s := column.ParallelSumRange(vals, lo, hi, e.Threads)
	obsEnd(e.met, start)
	return s, nil
}

// MinMax implements Executor.
func (e *ScanExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	vals, err := e.values(attr)
	if err != nil {
		return 0, 0, false, err
	}
	start := obsBegin(e.met)
	mn, mx, n := column.ParallelMinMaxRange(vals, lo, hi, e.Threads)
	obsEnd(e.met, start)
	return mn, mx, n > 0, nil
}

// SelectRows implements Executor: the parallel position-list scan.
func (e *ScanExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	vals, err := e.values(attr)
	if err != nil {
		return nil, err
	}
	start := obsBegin(e.met)
	rows := column.ParallelScanRange(vals, lo, hi, e.Threads)
	obsEnd(e.met, start)
	return rows, nil
}

// SelectBitmap implements BitmapSelector: the parallel word-packed
// scan, each worker filling a disjoint 64-aligned span of words.
func (e *ScanExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	vals, err := e.values(attr)
	if err != nil {
		return err
	}
	start := obsBegin(e.met)
	column.ParallelScanRangeBitmap(vals, lo, hi, bm, e.Threads)
	obsEnd(e.met, start)
	return nil
}

// Close implements Executor.
func (e *ScanExecutor) Close() {}

// OfflineExecutor answers queries by binary search over pre-sorted
// columns. PrepareAll pays the sorting cost; the harness charges it to
// the first query as the paper does ("since there is no idle time before
// the first query, the sorting cost is added to the execution time of the
// very first query").
type OfflineExecutor struct {
	table   *Table
	Threads int

	mu     sync.Mutex
	sorted map[string]*sortidx.SortedColumn
}

// NewOfflineExecutor builds the executor; call PrepareAll (or let the
// first query on each attribute pay the sort lazily).
func NewOfflineExecutor(t *Table, threads int) *OfflineExecutor {
	if threads < 1 {
		threads = 1
	}
	return &OfflineExecutor{table: t, Threads: threads, sorted: make(map[string]*sortidx.SortedColumn)}
}

// Label implements Executor.
func (e *OfflineExecutor) Label() string { return "offline indexing" }

// PrepareAll sorts every column of the table (the offline physical-design
// step, assuming a-priori workload knowledge).
func (e *OfflineExecutor) PrepareAll() {
	for _, name := range e.table.ColumnNames() {
		e.sortedFor(name, false)
	}
}

// sortedFor returns attr's sorted column, building it on first use. The
// count/aggregate forms sort plain values; the first SelectRows on an
// attribute upgrades it to a rowid-carrying sort (value/rowid pairs cost
// more to sort and +4 bytes/value to keep, so count-only workloads never
// pay for them).
func (e *OfflineExecutor) sortedFor(attr string, needRows bool) *sortidx.SortedColumn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sorted[attr]; ok && (!needRows || s.HasRows()) {
		return s
	}
	c := e.table.Column(attr)
	if c == nil {
		return nil
	}
	var s *sortidx.SortedColumn
	if needRows {
		s = sortidx.BuildWithRows(attr, c.Values(), e.Threads)
	} else {
		s = sortidx.Build(attr, c.Values(), e.Threads)
	}
	e.sorted[attr] = s
	return s
}

// EstimateCount implements CardEstimator: once a column is sorted the
// count is two binary searches, an exact and near-free estimate. Before
// the sort there is no index to consult (building one here would move
// the preparation cost into planning), so ok is false.
func (e *OfflineExecutor) EstimateCount(attr string, lo, hi int64) (float64, bool, bool) {
	e.mu.Lock()
	s := e.sorted[attr]
	e.mu.Unlock()
	if s == nil {
		return 0, false, false
	}
	return float64(s.CountRange(lo, hi)), true, true
}

// Count implements Executor.
func (e *OfflineExecutor) Count(attr string, lo, hi int64) (int, error) {
	s := e.sortedFor(attr, false)
	if s == nil {
		return 0, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	return s.CountRange(lo, hi), nil
}

// Sum implements Executor: binary search brackets the slice, then a tight
// fold over the contiguous run.
func (e *OfflineExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	s := e.sortedFor(attr, false)
	if s == nil {
		return 0, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	return s.SumRange(lo, hi), nil
}

// MinMax implements Executor: two edge reads on the sorted run.
func (e *OfflineExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	s := e.sortedFor(attr, false)
	if s == nil {
		return 0, 0, false, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	mn, mx, ok = s.MinMaxRange(lo, hi)
	return mn, mx, ok, nil
}

// SelectRows implements Executor: the rowids of the sorted run, copied so
// callers own the result.
func (e *OfflineExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	s := e.sortedFor(attr, true)
	if s == nil {
		return nil, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	start, end := s.SelectRange(lo, hi)
	return append([]uint32(nil), s.Rows(start, end)...), nil
}

// SelectBitmap implements BitmapSelector: the sorted run's rowids set
// bit by bit straight off the index — unlike SelectRows, nothing is
// copied.
func (e *OfflineExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	s := e.sortedFor(attr, true)
	if s == nil {
		return fmt.Errorf("engine: unknown attribute %q", attr)
	}
	start, end := s.SelectRange(lo, hi)
	bm.Reset(s.Len())
	bm.SetRows(s.Rows(start, end))
	return nil
}

// walkSortedRuns streams a rowid-carrying sorted column one maximal run
// of equal values at a time — each run is one key cluster (span 1).
func walkSortedRuns(s *sortidx.SortedColumn, fn func(vals []int64, rows []uint32)) {
	vals := s.Values()
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		fn(vals[i:j], s.Rows(i, j))
		i = j
	}
}

// KeyOrderSpan implements KeyOrderWalker: a sorted column clusters each
// distinct value exactly (span 1), and offline indexing sorts on demand,
// so the path exists for every attribute.
func (e *OfflineExecutor) KeyOrderSpan(attr string) (float64, bool) {
	if e.table.Column(attr) == nil {
		return 0, false
	}
	return 1, true
}

// WalkKeyOrder implements KeyOrderWalker: the rowid-carrying sorted run,
// streamed one equal-value cluster at a time.
func (e *OfflineExecutor) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (bool, error) {
	s := e.sortedFor(attr, true)
	if s == nil {
		return false, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	walkSortedRuns(s, fn)
	return true, nil
}

// Close implements Executor.
func (e *OfflineExecutor) Close() {}

// OnlineExecutor monitors the workload for an epoch of queries (answered
// by plain scans), then sorts every column — the COLT-style online
// indexing baseline of Section 5.1. The sorting cost lands inside the
// first post-epoch query, as in the paper.
type OnlineExecutor struct {
	table   *Table
	Threads int
	Epoch   int

	mu      sync.Mutex
	queries int
	sorted  map[string]*sortidx.SortedColumn
}

// NewOnlineExecutor builds the executor with the monitoring epoch in
// queries (the paper uses 100).
func NewOnlineExecutor(t *Table, threads, epoch int) *OnlineExecutor {
	if threads < 1 {
		threads = 1
	}
	if epoch < 1 {
		epoch = 100
	}
	return &OnlineExecutor{table: t, Threads: threads, Epoch: epoch, sorted: make(map[string]*sortidx.SortedColumn)}
}

// Label implements Executor.
func (e *OnlineExecutor) Label() string { return "online indexing" }

// index advances the monitoring epoch by one query and returns the
// sorted column for attr (nil while still inside the epoch) plus the base
// values for the scan fallback. Every query form — count, aggregate,
// materialization — counts against the epoch. The epoch sort is a plain
// value sort; the first SelectRows on an attribute upgrades it to a
// rowid-carrying sort (see OfflineExecutor.sortedFor).
func (e *OnlineExecutor) index(attr string, needRows bool) (*sortidx.SortedColumn, []int64, error) {
	c := e.table.Column(attr)
	if c == nil {
		return nil, nil, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	e.mu.Lock()
	e.queries++
	buildNow := e.queries == e.Epoch+1
	if buildNow && len(e.sorted) == 0 {
		// Enough workload knowledge obtained: sort all columns. The cost
		// is paid inside this query.
		for _, name := range e.table.ColumnNames() {
			e.sorted[name] = sortidx.Build(name, e.table.Column(name).Values(), e.Threads)
		}
	}
	s := e.sorted[attr]
	if s != nil && needRows && !s.HasRows() {
		s = sortidx.BuildWithRows(attr, c.Values(), e.Threads)
		e.sorted[attr] = s
	}
	e.mu.Unlock()
	return s, c.Values(), nil
}

// EstimateCount implements CardEstimator: exact once the epoch sort has
// happened, unavailable before (the probe does not advance the epoch).
func (e *OnlineExecutor) EstimateCount(attr string, lo, hi int64) (float64, bool, bool) {
	e.mu.Lock()
	s := e.sorted[attr]
	e.mu.Unlock()
	if s == nil {
		return 0, false, false
	}
	return float64(s.CountRange(lo, hi)), true, true
}

// Count implements Executor.
func (e *OnlineExecutor) Count(attr string, lo, hi int64) (int, error) {
	s, vals, err := e.index(attr, false)
	if err != nil {
		return 0, err
	}
	if s != nil {
		return s.CountRange(lo, hi), nil
	}
	return column.ParallelCountRange(vals, lo, hi, e.Threads), nil
}

// Sum implements Executor.
func (e *OnlineExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	s, vals, err := e.index(attr, false)
	if err != nil {
		return 0, err
	}
	if s != nil {
		return s.SumRange(lo, hi), nil
	}
	return column.ParallelSumRange(vals, lo, hi, e.Threads), nil
}

// MinMax implements Executor.
func (e *OnlineExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	s, vals, err := e.index(attr, false)
	if err != nil {
		return 0, 0, false, err
	}
	if s != nil {
		mn, mx, ok = s.MinMaxRange(lo, hi)
		return mn, mx, ok, nil
	}
	mn, mx, n := column.ParallelMinMaxRange(vals, lo, hi, e.Threads)
	return mn, mx, n > 0, nil
}

// SelectRows implements Executor.
func (e *OnlineExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	s, vals, err := e.index(attr, true)
	if err != nil {
		return nil, err
	}
	if s != nil {
		start, end := s.SelectRange(lo, hi)
		return append([]uint32(nil), s.Rows(start, end)...), nil
	}
	return column.ParallelScanRange(vals, lo, hi, e.Threads), nil
}

// SelectBitmap implements BitmapSelector: sorted-run rowids after the
// epoch, a parallel bitmap scan before.
func (e *OnlineExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	s, vals, err := e.index(attr, true)
	if err != nil {
		return err
	}
	if s != nil {
		start, end := s.SelectRange(lo, hi)
		bm.Reset(s.Len())
		bm.SetRows(s.Rows(start, end))
		return nil
	}
	column.ParallelScanRangeBitmap(vals, lo, hi, bm, e.Threads)
	return nil
}

// KeyOrderSpan implements KeyOrderWalker: exact clusters once the epoch
// sort has happened, no path before (the probe does not advance the
// epoch).
func (e *OnlineExecutor) KeyOrderSpan(attr string) (float64, bool) {
	e.mu.Lock()
	s := e.sorted[attr]
	e.mu.Unlock()
	if s == nil {
		return 0, false
	}
	return 1, true
}

// WalkKeyOrder implements KeyOrderWalker; it counts against the
// monitoring epoch like every other query form, and declines while the
// epoch is still running (the caller falls back to hash grouping over
// the base data).
func (e *OnlineExecutor) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (bool, error) {
	s, _, err := e.index(attr, true)
	if err != nil {
		return false, err
	}
	if s == nil {
		return false, nil
	}
	walkSortedRuns(s, fn)
	return true, nil
}

// Close implements Executor.
func (e *OnlineExecutor) Close() {}

// AdaptiveExecutor is database cracking: the first query on an attribute
// creates its cracker column, every query refines it. With
// ParallelWorkers > 1 it is the paper's PVDC (parallel partition & merge);
// with Stochastic set, PVSDC.
type AdaptiveExecutor struct {
	table *Table
	cfg   cracking.Config
	label string

	// Registry is optional: when set, the select operator records
	// per-index statistics (holistic mode shares this executor).
	Registry *stats.Registry
	// Admit is called to register a new cracker column (potential: built
	// ahead of any query driving it); holistic mode routes it through the
	// daemon's storage budget. Nil registers directly on Registry (when
	// present).
	Admit func(name string, col *cracking.Column, potential bool) *stats.Entry

	// met records access-path telemetry when attached (Instrumented).
	met *obs.ExecMetrics

	// mu guards the two maps only, never a build: building[attr] is
	// closed when the first touch of attr in flight is over, so other
	// attributes' queries, CrackerIfExists and admission do not wait for
	// an O(N) build, and a second first touch of attr builds nothing.
	mu       sync.Mutex
	crackers map[string]*cracking.Column
	building map[string]chan struct{}

	pendMu  sync.Mutex
	pending map[string]*updates.Pending
	// nextRow assigns base row ids to pending insertions per attribute:
	// the first insert lands at position table.Rows(), the next one after
	// it, matching the positions an append to the base column would take.
	nextRow map[string]uint32
	// tails, deleted and updated record the logical row-level state of
	// every update per attribute, independent of how much of the pending
	// queue has been merged into the cracker: tails[attr][i] is the value
	// of row table.Rows()+i, deleted marks rows without a value, updated
	// overrides values of existing rows. Positional probes (View) read
	// this overlay so conjunctive queries see current data. All guarded
	// by pendMu.
	tails   map[string][]int64
	deleted map[string]map[uint32]struct{}
	updated map[string]map[uint32]int64
	// viewCache holds the last snapshot handed out per attribute,
	// invalidated by the next mutation of that attribute: queries pay
	// the overlay map copy once per update batch, not once per probe.
	viewCache map[string]column.View
}

// NewAdaptiveExecutor builds a cracking executor; cfg selects the
// parallelism and stochastic behaviour.
func NewAdaptiveExecutor(t *Table, cfg cracking.Config, label string) *AdaptiveExecutor {
	if label == "" {
		label = "adaptive indexing"
	}
	return &AdaptiveExecutor{
		table:     t,
		cfg:       cfg,
		label:     label,
		crackers:  make(map[string]*cracking.Column),
		building:  make(map[string]chan struct{}),
		pending:   make(map[string]*updates.Pending),
		nextRow:   make(map[string]uint32),
		tails:     make(map[string][]int64),
		deleted:   make(map[string]map[uint32]struct{}),
		updated:   make(map[string]map[uint32]int64),
		viewCache: make(map[string]column.View),
	}
}

// Label implements Executor.
func (e *AdaptiveExecutor) Label() string { return e.label }

// SetExecMetrics implements Instrumented.
func (e *AdaptiveExecutor) SetExecMetrics(m *obs.ExecMetrics) { e.met = m }

// Cracker returns (building if needed) the cracker column of attr; the
// bool reports whether it already existed.
func (e *AdaptiveExecutor) Cracker(attr string) (*cracking.Column, bool, error) {
	return e.ensureCracker(attr, 0, 0, false)
}

// ensureCracker returns attr's cracker column, building it when absent —
// already cracked on [lo, hi), the bounds of the select that needs it
// (none when lo >= hi) — outside e.mu, then publishing and admitting it.
// Callers that find a build in flight wait for it and use its column.
func (e *AdaptiveExecutor) ensureCracker(attr string, lo, hi int64, potential bool) (*cracking.Column, bool, error) {
	e.mu.Lock()
	for {
		if c, ok := e.crackers[attr]; ok {
			e.mu.Unlock()
			return c, true, nil
		}
		inFlight, ok := e.building[attr]
		if !ok {
			break
		}
		e.mu.Unlock()
		<-inFlight
		e.mu.Lock()
	}
	base := e.table.Column(attr)
	if base == nil {
		e.mu.Unlock()
		return nil, false, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	done := make(chan struct{})
	e.building[attr] = done
	cfg := e.cfg
	cfg.Seed += int64(len(e.crackers) + len(e.building) - 1)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.building, attr)
		e.mu.Unlock()
		close(done)
	}()

	c := cracking.NewCracked(attr, base.Values(), cfg, lo, hi)
	e.mu.Lock()
	e.crackers[attr] = c
	e.mu.Unlock()
	if !potential && e.met != nil {
		e.met.CrackerBuilds.Inc()
	}
	if e.Admit != nil {
		e.Admit(attr, c, potential)
	} else if e.Registry != nil {
		e.Registry.Add(attr, c, potential)
	}
	return c, false, nil
}

// CrackerIfExists returns the cracker column without creating one.
func (e *AdaptiveExecutor) CrackerIfExists(attr string) *cracking.Column {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crackers[attr]
}

// Pending returns (creating if needed) the pending-updates store of attr.
func (e *AdaptiveExecutor) Pending(attr string) *updates.Pending {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	p, ok := e.pending[attr]
	if !ok {
		p = updates.NewPending()
		e.pending[attr] = p
	}
	return p
}

// Insert implements Inserter: the value becomes a pending insertion,
// merged lazily by queries (and, under holistic indexing, by workers).
// Its base row id continues the table's position sequence, so row ids
// materialized by SelectRows stay unambiguous across inserts.
func (e *AdaptiveExecutor) Insert(attr string, v int64) error {
	if e.table.Column(attr) == nil {
		return fmt.Errorf("engine: unknown attribute %q", attr)
	}
	p := e.Pending(attr)
	e.pendMu.Lock()
	row, ok := e.nextRow[attr]
	if !ok {
		row = uint32(e.table.Rows())
	}
	e.nextRow[attr] = row + 1
	e.tails[attr] = append(e.tails[attr], v)
	delete(e.viewCache, attr)
	e.pendMu.Unlock()
	p.AddInsert(v, row)
	return nil
}

// currentRowOfLocked returns the lowest row id whose current logical
// value in attr equals v, scanning base values and the appended tail
// through the overlay — O(column) under pendMu, sized for the paper's
// small update batches rather than bulk deletes. Caller must hold
// pendMu.
func (e *AdaptiveExecutor) currentRowOfLocked(attr string, base []int64, v int64) (uint32, bool) {
	dead := e.deleted[attr]
	upd := e.updated[attr]
	at := func(row uint32, raw int64) (int64, bool) {
		if _, d := dead[row]; d {
			return 0, false
		}
		if nv, ok := upd[row]; ok {
			return nv, true
		}
		return raw, true
	}
	for i, raw := range base {
		if cur, ok := at(uint32(i), raw); ok && cur == v {
			return uint32(i), true
		}
	}
	for i, raw := range e.tails[attr] {
		row := uint32(len(base) + i)
		if cur, ok := at(row, raw); ok && cur == v {
			return row, true
		}
	}
	return 0, false
}

// Delete implements Deleter: the tuple whose current value in attr is v
// becomes a pending deletion, merged lazily like inserts. The lowest
// row id currently holding v is resolved up front and recorded in both
// the overlay and the pending operation, so the eventual index merge
// removes exactly that tuple (MergeDeleteRow) and row-level probes stay
// consistent with the index even for duplicated values. Only under
// Config.NoRowIDs does the merge fall back to removing an unspecified
// occurrence (multiset semantics; conjunctions are unavailable there
// anyway).
func (e *AdaptiveExecutor) Delete(attr string, v int64) error {
	base := e.table.Column(attr)
	if base == nil {
		return fmt.Errorf("engine: unknown attribute %q", attr)
	}
	p := e.Pending(attr)
	e.pendMu.Lock()
	row, ok := e.currentRowOfLocked(attr, base.Values(), v)
	if !ok {
		e.pendMu.Unlock()
		return fmt.Errorf("engine: delete %s = %d: no such value", attr, v)
	}
	dead, ok := e.deleted[attr]
	if !ok {
		dead = make(map[uint32]struct{})
		e.deleted[attr] = dead
	}
	dead[row] = struct{}{}
	delete(e.viewCache, attr)
	e.pendMu.Unlock()
	p.AddDeleteRow(v, row)
	return nil
}

// Update implements Updater: a deletion of oldV followed by an
// insertion of newV at the same row id, so the tuple keeps its identity
// (the paper's definition of an update, made row-stable). As with
// Delete, the target row is the lowest one currently holding oldV and
// the merge is row-targeted.
func (e *AdaptiveExecutor) Update(attr string, oldV, newV int64) error {
	base := e.table.Column(attr)
	if base == nil {
		return fmt.Errorf("engine: unknown attribute %q", attr)
	}
	p := e.Pending(attr)
	e.pendMu.Lock()
	row, ok := e.currentRowOfLocked(attr, base.Values(), oldV)
	if !ok {
		e.pendMu.Unlock()
		return fmt.Errorf("engine: update %s = %d: no such value", attr, oldV)
	}
	upd, ok := e.updated[attr]
	if !ok {
		upd = make(map[uint32]int64)
		e.updated[attr] = upd
	}
	upd[row] = newV
	delete(e.viewCache, attr)
	e.pendMu.Unlock()
	p.AddUpdate(oldV, newV, row)
	return nil
}

// View implements Viewer: a snapshot of attr's current logical state
// for positional probes. The overlay maps are copied so the snapshot
// is immutable; the copy is cached and reused until the attribute's
// next mutation, so query-heavy phases pay it once per update batch.
// The tail shares storage with the append-only record.
func (e *AdaptiveExecutor) View(attr string) (column.View, error) {
	base := e.table.Column(attr)
	if base == nil {
		return column.View{}, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	if w, ok := e.viewCache[attr]; ok {
		return w, nil
	}
	w := column.View{Base: base.Values()}
	if tail := e.tails[attr]; len(tail) > 0 {
		w.Tail = tail[:len(tail):len(tail)]
	}
	if dead := e.deleted[attr]; len(dead) > 0 {
		w.Deleted = make(map[uint32]struct{}, len(dead))
		for r := range dead {
			w.Deleted[r] = struct{}{}
		}
	}
	if upd := e.updated[attr]; len(upd) > 0 {
		w.Updated = make(map[uint32]int64, len(upd))
		for r, v := range upd {
			w.Updated[r] = v
		}
	}
	e.viewCache[attr] = w
	return w, nil
}

// EstimateCount implements CardEstimator. An existing cracker whose
// index already has boundaries at both bounds answers exactly (pending
// updates excluded — planning only needs relative order); otherwise the
// cracker's cached domain yields a uniform estimate. ok is false before
// the first query on attr.
func (e *AdaptiveExecutor) EstimateCount(attr string, lo, hi int64) (float64, bool, bool) {
	c := e.CrackerIfExists(attr)
	if c == nil {
		return 0, false, false
	}
	if r, ok := c.LookupRange(lo, hi); ok {
		return float64(r.Count()), true, true
	}
	dLo, dHi := c.Domain()
	return column.UniformEstimate(float64(c.Len()), dLo, dHi, lo, hi), false, true
}

// selectCracker returns attr's cracker with every pending update covering
// [lo, hi) merged in — the shared front half of all select forms. When
// this is the call that creates the cracker, it is built already cracked
// on [lo, hi) and the select that follows is an exact hit.
func (e *AdaptiveExecutor) selectCracker(attr string, lo, hi int64) (*cracking.Column, error) {
	c, _, err := e.ensureCracker(attr, lo, hi, false)
	if err != nil {
		return nil, err
	}
	if p := e.Pending(attr); p.Len() > 0 && p.HasInRange(lo, hi) {
		if n := p.MergeRange(c, lo, hi); n > 0 && e.met != nil {
			e.met.MergedUpdates.Add(int64(n))
		}
	}
	return c, nil
}

func (e *AdaptiveExecutor) record(attr string, r cracking.Range) {
	if e.Registry != nil {
		e.Registry.RecordAccess(attr, r.ExactHit())
	}
}

// Count implements Executor: the cracking select operator. It merges
// pending updates covering the requested range, cracks, and records
// statistics.
func (e *AdaptiveExecutor) Count(attr string, lo, hi int64) (int, error) {
	start := obsBegin(e.met)
	c, err := e.selectCracker(attr, lo, hi)
	if err != nil {
		return 0, err
	}
	r := c.SelectRange(lo, hi)
	e.record(attr, r)
	obsEnd(e.met, start)
	return r.Count(), nil
}

// Sum implements Executor: crack, then fold the qualifying pieces under
// their latches — the aggregate never leaves the cracker's segments.
func (e *AdaptiveExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	start := obsBegin(e.met)
	c, err := e.selectCracker(attr, lo, hi)
	if err != nil {
		return 0, err
	}
	r, s := c.SelectSum(lo, hi)
	e.record(attr, r)
	obsEnd(e.met, start)
	return s, nil
}

// MinMax implements Executor.
func (e *AdaptiveExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	start := obsBegin(e.met)
	c, err := e.selectCracker(attr, lo, hi)
	if err != nil {
		return 0, 0, false, err
	}
	r, mn, mx := c.SelectMinMax(lo, hi)
	e.record(attr, r)
	obsEnd(e.met, start)
	return mn, mx, r.Count() > 0, nil
}

// SelectRows implements Executor: the cracked position range's rowids,
// materialized piece by piece. The executor's cracking configuration must
// carry rowids (Config.WithRows).
func (e *AdaptiveExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	start := obsBegin(e.met)
	c, err := e.selectCracker(attr, lo, hi)
	if err != nil {
		return nil, err
	}
	if !c.HasRows() {
		return nil, fmt.Errorf("engine: %s: SelectRows needs rowids; build with cracking.Config.WithRows", e.label)
	}
	r, rows := c.SelectRows(lo, hi)
	e.record(attr, r)
	obsEnd(e.met, start)
	return rows, nil
}

// universe returns the size of the position space row ids of attr can
// occupy: base rows plus rows appended by pending insertions.
func (e *AdaptiveExecutor) universe(attr string) int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	n := e.table.Rows()
	if next, ok := e.nextRow[attr]; ok && int(next) > n {
		n = int(next)
	}
	return n
}

// SelectBitmap implements BitmapSelector: the cracked position range's
// rowids streamed segment by segment into the bitmap under the pieces'
// read latches — the select refines the index exactly like SelectRows
// but materializes nothing.
func (e *AdaptiveExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	start := obsBegin(e.met)
	c, err := e.selectCracker(attr, lo, hi)
	if err != nil {
		return err
	}
	bm.Reset(e.universe(attr))
	// SetRowsExtend, not SetRows: between sizing and streaming, a
	// concurrent query can merge a pending insert whose row id lies at
	// or beyond the universe read above.
	r, ok := c.SelectRowsFunc(lo, hi, func(rows []uint32) { bm.SetRowsExtend(rows) })
	if !ok {
		return fmt.Errorf("engine: %s: SelectBitmap needs rowids; build with cracking.Config.WithRows", e.label)
	}
	e.record(attr, r)
	obsEnd(e.met, start)
	return nil
}

// KeyOrderSpan implements KeyOrderWalker: an existing rowid-carrying
// cracker streams its pieces as clusters, so the expected cluster span
// is the column's domain span divided by the piece count — the number
// background refinement keeps shrinking. No cracker yet (attr never
// drove a select and was never admitted as a potential index) means no
// key-ordered path.
func (e *AdaptiveExecutor) KeyOrderSpan(attr string) (float64, bool) {
	c := e.CrackerIfExists(attr)
	if c == nil || !c.HasRows() {
		return 0, false
	}
	pieces := c.Pieces()
	if pieces < 1 {
		pieces = 1
	}
	dLo, dHi := c.Domain()
	return (float64(dHi) - float64(dLo) + 1) / float64(pieces), true
}

// WalkKeyOrder implements KeyOrderWalker: every pending update is merged
// first (a full-column walk is a select over the whole value range, and
// pays for its merges exactly like any range select does), then the
// pieces stream in ascending key order under their read latches.
func (e *AdaptiveExecutor) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (bool, error) {
	if e.table.Column(attr) == nil {
		return false, fmt.Errorf("engine: unknown attribute %q", attr)
	}
	c := e.CrackerIfExists(attr)
	if c == nil || !c.HasRows() {
		return false, nil
	}
	if p := e.Pending(attr); p.Len() > 0 {
		if n := p.MergeAll(c); n > 0 && e.met != nil {
			e.met.MergedUpdates.Add(int64(n))
		}
	}
	if e.met != nil {
		e.met.KeyOrderWalks.Inc()
	}
	c.ForEachPiece(fn)
	return true, nil
}

// TotalPieces sums pieces over all cracker columns (Figure 6(c)).
func (e *AdaptiveExecutor) TotalPieces() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, c := range e.crackers {
		total += c.Pieces()
	}
	return total
}

// Close implements Executor.
func (e *AdaptiveExecutor) Close() {}

// HolisticExecutor wraps the adaptive executor with the holistic indexing
// daemon: user queries run the cracking select operator while the daemon
// exploits idle contexts for auxiliary refinements.
type HolisticExecutor struct {
	*AdaptiveExecutor
	Daemon *holistic.Daemon
	Acct   *cpu.LoadAccountant
	// UserThreads is the number of contexts one user query occupies
	// while running (the u of the paper's uXwYxZ distributions).
	UserThreads int
	// ec is the refinement-economics recorder residual predicate spans
	// are charged to; swapped atomically so queries never race SetEcon.
	ec atomic.Pointer[econ.Econ]
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
	// Contexts is the hardware-context budget of the load accountant.
	Contexts int
	// UserThreads is how many contexts a running user query occupies.
	UserThreads int
	// StatsSeed seeds the W4 strategy RNG.
	StatsSeed int64
	// Monitor overrides the load accountant as the daemon's idle signal;
	// benchmarks use cpu.Fixed to pin the uXwYxZ thread distributions.
	Monitor cpu.Monitor
}

// NewHolisticExecutor builds the executor and starts its daemon.
func NewHolisticExecutor(t *Table, cfg HolisticConfig) *HolisticExecutor {
	if cfg.Contexts < 1 {
		cfg.Contexts = 2
	}
	if cfg.UserThreads < 1 {
		cfg.UserThreads = 1
	}
	reg := stats.NewRegistry(cfg.L1Values, cfg.StatsSeed)
	acct := cpu.NewLoadAccountant(cfg.Contexts)
	var mon cpu.Monitor = acct
	if cfg.Monitor != nil {
		mon = cfg.Monitor
	}
	daemon := holistic.New(reg, mon, cfg.Daemon)
	ad := NewAdaptiveExecutor(t, cfg.Cracking, "holistic indexing")
	ad.Registry = reg
	h := &HolisticExecutor{
		AdaptiveExecutor: ad,
		Daemon:           daemon,
		Acct:             acct,
		UserThreads:      cfg.UserThreads,
	}
	ad.Admit = func(name string, col *cracking.Column, potential bool) *stats.Entry {
		entry, _ := daemon.AdmitIndex(name, col, potential)
		daemon.AttachPending(name, ad.Pending(name))
		return entry
	}
	daemon.Start()
	return h
}

// AddPotential registers an index on attr into Cpotential so the daemon
// can refine it before any query arrives (Figure 9's idle-time prefill).
func (h *HolisticExecutor) AddPotential(attr string) error {
	_, _, err := h.ensureCracker(attr, 0, 0, true)
	return err
}

// NotePredicate implements PredicateSink: a conjunctive query touched
// attr without driving its select. The attribute joins the potential
// configuration (no-op if already indexed) and its access statistics
// are bumped, so the daemon's refinement effort spreads across every
// column the workload touches — the paper's multi-column payoff.
func (h *HolisticExecutor) NotePredicate(attr string) error {
	if err := h.AddPotential(attr); err != nil {
		return err
	}
	h.Registry.RecordAccess(attr, false)
	return nil
}

// SetEcon attaches the economics recorder residual predicate spans are
// charged to (nil detaches), and forwards it to the daemon so
// refinement investment lands in the same ledger.
func (h *HolisticExecutor) SetEcon(e *econ.Econ) {
	h.ec.Store(e)
	h.Daemon.SetEcon(e)
}

// NotePredicateSpan implements PredicateSpanSink: NotePredicate's
// admission plus the access-heatmap charge for [lo, hi), so operators
// can compare where residual load lands against where the daemon
// refines. Steady-state it allocates nothing (the heatmap recording
// path is //holistic:noalloc); only the error format on an unknown
// attribute does.
func (h *HolisticExecutor) NotePredicateSpan(attr string, lo, hi int64) error {
	if err := h.NotePredicate(attr); err != nil {
		return err
	}
	if ec := h.ec.Load(); ec != nil {
		if c := h.CrackerIfExists(attr); c != nil {
			dLo, dHi := c.Domain()
			ec.NotePredicate(attr, lo, hi, dLo, dHi)
		}
	}
	return nil
}

// Count implements Executor: the adaptive select operator bracketed by
// load accounting so the daemon sees the occupied contexts.
func (h *HolisticExecutor) Count(attr string, lo, hi int64) (int, error) {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.Count(attr, lo, hi)
}

// Sum implements Executor with the same load-accounting bracket.
func (h *HolisticExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.Sum(attr, lo, hi)
}

// MinMax implements Executor with the same load-accounting bracket.
func (h *HolisticExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.MinMax(attr, lo, hi)
}

// SelectRows implements Executor with the same load-accounting bracket.
func (h *HolisticExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.SelectRows(attr, lo, hi)
}

// SelectBitmap implements BitmapSelector with the same load-accounting
// bracket as the other select forms.
func (h *HolisticExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.SelectBitmap(attr, lo, hi, bm)
}

// WalkKeyOrder implements KeyOrderWalker with the same load-accounting
// bracket as the select forms, so the daemon sees the walk's contexts as
// occupied.
func (h *HolisticExecutor) WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (bool, error) {
	h.Acct.Acquire(h.UserThreads)
	defer h.Acct.Release(h.UserThreads)
	return h.AdaptiveExecutor.WalkKeyOrder(attr, fn)
}

// Close stops the daemon.
func (h *HolisticExecutor) Close() { h.Daemon.Stop() }

// CCGIExecutor is the mP-CCGI baseline (Section 5.2).
type CCGIExecutor struct {
	table   *Table
	Threads int
	Buckets int
	cfg     cracking.Config

	mu      sync.Mutex
	indexes map[string]*ccgi.Index
}

// NewCCGIExecutor builds the baseline with the given chunk parallelism
// and coarse-partitioning bucket count.
func NewCCGIExecutor(t *Table, threads, buckets int, cfg cracking.Config) *CCGIExecutor {
	if threads < 1 {
		threads = 1
	}
	return &CCGIExecutor{table: t, Threads: threads, Buckets: buckets, cfg: cfg, indexes: make(map[string]*ccgi.Index)}
}

// Label implements Executor.
func (e *CCGIExecutor) Label() string { return "mP-CCGI" }

func (e *CCGIExecutor) index(attr string) (*ccgi.Index, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	x, ok := e.indexes[attr]
	if !ok {
		base := e.table.Column(attr)
		if base == nil {
			return nil, fmt.Errorf("engine: unknown attribute %q", attr)
		}
		x = ccgi.New(attr, base.Values(), e.Threads, e.Buckets, e.cfg)
		e.indexes[attr] = x
	}
	return x, nil
}

// Count implements Executor.
func (e *CCGIExecutor) Count(attr string, lo, hi int64) (int, error) {
	x, err := e.index(attr)
	if err != nil {
		return 0, err
	}
	return x.SelectCount(lo, hi), nil
}

// Sum implements Executor: every chunk cracks and folds in parallel.
func (e *CCGIExecutor) Sum(attr string, lo, hi int64) (int64, error) {
	x, err := e.index(attr)
	if err != nil {
		return 0, err
	}
	return x.SelectSum(lo, hi), nil
}

// MinMax implements Executor.
func (e *CCGIExecutor) MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	x, err := e.index(attr)
	if err != nil {
		return 0, 0, false, err
	}
	mn, mx, ok = x.SelectMinMax(lo, hi)
	return mn, mx, ok, nil
}

// SelectRows implements Executor: chunk-local rowids shifted to base
// positions. The executor's cracking configuration must carry rowids.
func (e *CCGIExecutor) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	x, err := e.index(attr)
	if err != nil {
		return nil, err
	}
	rows, ok := x.SelectRows(lo, hi)
	if !ok {
		return nil, fmt.Errorf("engine: %s: SelectRows needs rowids; build with cracking.Config.WithRows", e.Label())
	}
	return rows, nil
}

// SelectBitmap implements BitmapSelector: every chunk cracks in
// parallel and ORs its shifted rowids into the bitmap atomically (chunk
// position spans are disjoint, but two chunks can share a boundary
// word).
func (e *CCGIExecutor) SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error {
	x, err := e.index(attr)
	if err != nil {
		return err
	}
	bm.Reset(e.table.Rows())
	if !x.SelectRowsFunc(lo, hi, func(off uint32, rows []uint32) { bm.OrRowsAtomic(rows, off) }) {
		return fmt.Errorf("engine: %s: SelectBitmap needs rowids; build with cracking.Config.WithRows", e.Label())
	}
	return nil
}

// Close implements Executor.
func (e *CCGIExecutor) Close() {}

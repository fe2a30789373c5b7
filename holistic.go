// Package holistic is a main-memory column-store library with holistic
// indexing: always-on, zero-administration adaptive index tuning that
// exploits idle CPU resources, reproducing "Holistic Indexing in
// Main-memory Column-stores" (Petraki, Idreos, Manegold; SIGMOD 2015).
//
// A Store holds integer columns and answers range selections. Depending
// on the configured Mode it scans, uses full (offline/online) indexing,
// cracks adaptively, or — the paper's contribution — cracks adaptively
// while a background daemon continuously refines the index space
// whenever CPU contexts are idle:
//
//	store := holistic.NewStore(holistic.Config{Mode: holistic.ModeHolistic})
//	store.AddIntColumn("price", prices)
//	defer store.Close()
//	n, _ := store.CountRange("price", 100, 200) // cracks as a side effect
//
// Beyond counting, every mode answers aggregates and materialization over
// the same range predicates — SumRange, MinMaxRange and SelectRows — with
// the work pushed down into the mode's native access path (cracked-piece
// folds, binary-search slices, parallel chunked scans), and with pending
// insertions merged so results stay correct under updates.
//
// Multi-predicate conjunctions run through Store.Query: the planner
// orders the range conjuncts by estimated selectivity, drives the most
// selective one through the mode's access path and refines the
// candidate rows against the rest, each by positional probes (late
// tuple reconstruction) or through its own index, whichever costs less;
// under ModeHolistic every conjunct feeds the daemon's index space so
// refinement spreads across all touched columns. The cracking modes also
// accept Delete and Update as pending operations merged lazily like
// inserts. See DESIGN.md §4.
//
// Grouped aggregation chains GroupBy and Aggregate onto a query:
// fused COUNT/SUM/MIN/MAX plans over the selection, executed with a
// per-query physical strategy (dense bit-packed, hash, or sort-based
// index-clustered grouping — the latter is how background refinement
// pays off beyond selects). See DESIGN.md §6.
//
// Equi-joins chain Join onto a query, matching it against another
// query (typically over a second Store) with Count, Sum, Pairs and
// GroupBy/Aggregate terminals over either side's columns. Two physical
// strategies exist — a radix-partitioned open-addressing hash join and
// an index-clustered merge join that intersects cluster value ranges
// with no hash table at all — and the join attributes of both
// relations feed the holistic daemons, so idle refinement converts
// hash joins into merge joins over time. See DESIGN.md §7.
//
// Non-integer attributes map onto int64 the way fixed-width column-stores
// do it: dates as day numbers, decimals as scaled integers, strings as
// dictionary codes (see internal/column.Dict).
package holistic

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/join"
	"holistic/internal/obs"
	"holistic/internal/obs/flight"
	"holistic/internal/obs/observer"
	"holistic/internal/query"
	"holistic/internal/stats"
)

// Mode selects the indexing approach of a Store.
type Mode int

const (
	// ModeScan answers queries with parallel scans; no indexing.
	ModeScan Mode = iota
	// ModeOffline pre-sorts every column (call Prepare) and answers with
	// binary search.
	ModeOffline
	// ModeOnline scans for an epoch of queries, then sorts all columns.
	ModeOnline
	// ModeAdaptive cracks columns as a side effect of queries (database
	// cracking; large pieces are partitioned by Threads goroutines).
	ModeAdaptive
	// ModeStochastic is ModeAdaptive plus one auxiliary random crack per
	// query (stochastic cracking).
	ModeStochastic
	// ModeCCGI is the chunked coarse-granular multi-core baseline.
	ModeCCGI
	// ModeHolistic is ModeAdaptive plus the holistic indexing daemon:
	// idle CPU contexts continuously refine the index space.
	ModeHolistic
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeScan:
		return "scan"
	case ModeOffline:
		return "offline"
	case ModeOnline:
		return "online"
	case ModeAdaptive:
		return "adaptive"
	case ModeStochastic:
		return "stochastic"
	case ModeCCGI:
		return "ccgi"
	case ModeHolistic:
		return "holistic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes a Store. The zero value is usable, but note what it
// selects: the zero Mode is ModeScan — no indexing at all — so a store
// that should crack or run the holistic daemon must say so.
type Config struct {
	// Mode selects the indexing approach (the zero value is ModeScan).
	Mode Mode
	// Threads is the hardware-context budget (default 2): scan and sort
	// parallelism, and — under ModeHolistic — the contexts the daemon
	// counts as idle while no query or worker runs on them.
	Threads int
	// OnlineEpoch is the monitoring epoch of ModeOnline in queries
	// (default 100).
	OnlineEpoch int
	// L1CacheBytes is the L1 data cache size defining the optimal piece
	// size of Equation 1 (default 32 KiB).
	L1CacheBytes int
	// TuningInterval is the daemon's CPU-load measurement window
	// (default 1s, the paper's choice; benchmarks use milliseconds).
	TuningInterval time.Duration
	// RefinementsPerWorker is x, the refinement actions per activated
	// worker (default 16, the paper's sweet spot).
	RefinementsPerWorker int
	// StorageBudget bounds the materialized index space in bytes under
	// ModeHolistic; 0 = unlimited. LFU indices are evicted to fit, and
	// an evicted index is freed: the next touch rebuilds it from the base
	// column and replays the attribute's pending updates into it.
	StorageBudget int64
	// Seed fixes all randomized choices for reproducibility.
	Seed int64
	// WALSync selects the write-ahead-log fsync policy of a store opened
	// with OpenStore: group commit (default), an fsync per record, or
	// none. Ignored by NewStore.
	WALSync WALSync
	// SnapshotInterval is how long a durable store lets a logged write
	// wait for a background snapshot (default 10s): the first write after
	// a snapshot arms one timer, so a store nobody writes to snapshots
	// nothing. Negative disables background snapshots (Checkpoint and
	// Close still write them). Ignored by NewStore.
	SnapshotInterval time.Duration
	// DataOnlyRecovery makes OpenStore restore the logical column data
	// but discard the persisted adaptive state, so every index rebuilds
	// from scratch — the cold start the recover benchmark compares
	// adaptive-state restore against. Ignored by NewStore.
	DataOnlyRecovery bool
	// FlightEvents sizes the flight recorder's event ring (rounded up
	// to a power of two; default 4096 events of 64 bytes each).
	// Negative disables flight recording entirely.
	FlightEvents int
	// SLOP99 is the absolute p99 latency objective the watchdog
	// enforces: a rolling window whose p99 exceeds it triggers an
	// anomaly flight dump. 0 leaves only the relative rule (p99 above
	// a multiple of the rolling baseline).
	SLOP99 time.Duration
	// WatchdogInterval is the watchdog's window (default 1s): a window
	// closes at the first query or daemon cycle after the interval has
	// passed, and the watchdog judges it against its rolling baselines.
	// Negative disables the watchdog. Anomaly-triggered flight dumps are
	// at least 30s apart, and a durable store keeps the newest 8 dump
	// files.
	WatchdogInterval time.Duration
	// TimelineInterval is ignored: a store samples nothing on a timer.
	// The field is kept only because the frozen benchmark module names
	// it.
	TimelineInterval time.Duration
}

// flightDumpKeep bounds the flight-dump files a durable store keeps on
// disk; the writer self-prunes the oldest beyond it.
const flightDumpKeep = 8

func (c Config) threads() int {
	if c.Threads < 1 {
		return 2
	}
	return c.Threads
}

// cadence resolves one of Config's interval knobs (WatchdogInterval,
// SnapshotInterval): def when unset, 0 — off — when negative.
func cadence(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return max(v, 0)
}

func (c Config) l1Values() int {
	if c.L1CacheBytes <= 0 {
		return stats.DefaultL1Values
	}
	return c.L1CacheBytes / 8
}

// ErrClosed is returned by every query on a store whose Close has been
// called.
var ErrClosed = errors.New("holistic: store is closed")

// Store is a main-memory column-store over int64 columns.
type Store struct {
	cfg Config

	// ob is the store's one observer — lifetime metrics, flight ring and
	// watchdog, trace sink — shared by the query runner, the executor,
	// its daemon and the durability layer (DESIGN.md §9); obsName is the
	// name the store is registered under on the debug endpoints.
	ob      *observer.Observer
	obsName string

	// dur is the persistence engine of a store opened with OpenStore;
	// nil for purely in-memory stores.
	dur *durability

	// mu serializes what changes the store: adding a column, building
	// the executor, closing, swapping the trace sink.
	mu    sync.Mutex
	table *engine.Table
	// exec and the query runner over it are built together on the first
	// query, under mu, and published once — qr first, so whoever sees
	// exec sees qr. Reads and the watchdog's roll load them with no lock
	// held; closed is set once, under mu, and read the same way.
	exec   atomic.Pointer[engine.Executor]
	qr     atomic.Pointer[query.Runner]
	closed atomic.Bool
	// traceSink is the owned JSONL trace sink of SetTraceJSONL /
	// SetTraceJSONLFile, kept so Close can flush it and Metrics can
	// surface its write-error counters.
	traceSink *obs.JSONLSink
}

// storeSeq numbers stores for the process-wide metrics registry.
var storeSeq atomic.Int64

// NewStore creates an empty store. Every store registers one entry on
// the debug endpoints (see DESIGN.md §9) — its Metrics snapshot, flight
// ring and Prometheus collector — until Close.
func NewStore(cfg Config) *Store {
	s := newStore(cfg)
	s.publish()
	return s
}

// newStore builds a store that nothing outside can see yet.
func newStore(cfg Config) *Store {
	s := &Store{cfg: cfg, table: engine.NewTable("store")}
	s.obsName = "store-" + strconv.FormatInt(storeSeq.Add(1), 10)
	s.ob = observer.New(observer.Config{
		FlightEvents: cfg.FlightEvents,
		SLOP99:       cfg.SLOP99,
		Watchdog:     cadence(cfg.WatchdogInterval, time.Second),
	})
	return s
}

// publish registers the store on the debug endpoints and arms its
// watchdog's window roll; a durable store's anomalies are dumped to its
// directory. A durable store publishes once recovery is over, so neither
// a scrape nor a window roll ever sees it half-opened.
func (s *Store) publish() {
	entry := obs.Entry{Metrics: func() any { return s.Metrics() }, Prom: s.promCollect}
	if s.ob.Flight != nil {
		entry.Flight = func() any { return s.ob.FlightState(s.PriorFlightDumps()) }
	}
	obs.Register(s.obsName, entry)
	var dump func(flight.Trigger)
	if s.dur != nil {
		dump = s.dur.flightDump
	}
	s.ob.Watch(s.health, dump)
}

// AddIntColumn adds a named column. Columns must be added before the
// first query; all columns must have equal length.
func (s *Store) AddIntColumn(name string, values []int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.exec.Load() != nil {
		return fmt.Errorf("holistic: cannot add column %q after the first query", name)
	}
	if s.dur != nil && len(name) > durable.MaxNameLen {
		// Refused here, not at the first checkpoint: the snapshot format
		// frames a name's length in 16 bits.
		return fmt.Errorf("holistic: column name of %d bytes: a durable store takes at most %d", len(name), durable.MaxNameLen)
	}
	return s.table.AddColumn(column.New(name, values))
}

// executor returns the mode's executor, building it on first use. Once
// built it is an atomic load: no read takes a store-wide lock.
func (s *Store) executor() (*engine.Executor, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if exec := s.exec.Load(); exec != nil {
		return exec, nil
	}
	return s.buildOnce()
}

// runner returns the store's conjunctive query runner, building it (and
// the executor) on first use; buildOnce publishes the runner before the
// executor, so an executor returned means the runner is there to load.
func (s *Store) runner() (*query.Runner, error) {
	if _, err := s.executor(); err != nil {
		return nil, err
	}
	return s.qr.Load(), nil
}

// buildOnce builds the executor and the query runner over it under mu,
// and publishes both once a durable store has attached the executor, so
// no write reaches an executor the durability layer does not know yet.
func (s *Store) buildOnce() (*engine.Executor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if exec := s.exec.Load(); exec != nil {
		return exec, nil
	}
	exec := s.build()
	exec.SetObserver(s.ob)
	qr := query.New(s.table, exec, s.cfg.threads())
	qr.SetObserver(s.ob)
	var err error
	if s.dur != nil {
		err = s.dur.attachExec(exec)
	}
	s.qr.Store(qr)
	s.exec.Store(exec)
	if err != nil {
		return nil, err
	}
	return exec, nil
}

func (s *Store) build() *engine.Executor {
	threads := s.cfg.threads()
	crackCfg := cracking.Config{
		ParallelWorkers: threads,
		Seed:            s.cfg.Seed,
	}
	switch s.cfg.Mode {
	case ModeScan:
		return engine.NewScanExecutor(s.table, threads)
	case ModeOffline:
		return engine.NewOfflineExecutor(s.table, threads)
	case ModeOnline:
		return engine.NewOnlineExecutor(s.table, threads, s.cfg.OnlineEpoch)
	case ModeStochastic:
		crackCfg.Stochastic = true
		return engine.NewAdaptiveExecutor(s.table, crackCfg, "stochastic")
	case ModeCCGI:
		return engine.NewCCGIExecutor(s.table, threads, 64, cracking.Config{Seed: s.cfg.Seed})
	case ModeHolistic:
		// A user query's crack of a large piece fans out to half the
		// contexts.
		crackCfg.ParallelWorkers = max(threads/2, 1)
		return engine.NewHolisticExecutor(s.table, engine.HolisticConfig{
			Cracking: crackCfg,
			Daemon: holistic.Config{
				Interval:      s.cfg.TuningInterval,
				Refinements:   s.cfg.RefinementsPerWorker,
				Seed:          s.cfg.Seed,
				StorageBudget: s.cfg.StorageBudget,
			},
			L1Values:  s.cfg.l1Values(),
			Contexts:  threads,
			StatsSeed: s.cfg.Seed,
		})
	default:
		return engine.NewAdaptiveExecutor(s.table, crackCfg, "")
	}
}

// Prepare performs the mode's upfront work: under ModeOffline it sorts
// every column now (otherwise the first query on each attribute pays the
// sort). Other modes need no preparation. Prepare on a closed store is a
// no-op.
func (s *Store) Prepare() {
	exec, err := s.executor()
	if err != nil {
		return
	}
	exec.PrepareAll()
}

// CountRange answers "select count(*) where lo <= attr < hi", building or
// refining the mode's index structures as a side effect.
func (s *Store) CountRange(attr string, lo, hi int64) (int, error) {
	exec, err := s.executor()
	if err != nil {
		return 0, err
	}
	sp := s.beginRange(exec, obs.OpCount)
	n, err := exec.Count(attr, lo, hi)
	s.ob.End(sp, 0, 0, int64(n), err)
	return n, err
}

// beginRange opens the observer's query bracket for one of the four
// single-predicate range doors — the same bracket the query runner's
// terminals use, without its planner: no estimate probe, no scratch.
//
//holistic:noalloc
func (s *Store) beginRange(exec *engine.Executor, op obs.Op) observer.Span {
	sp := s.ob.Begin(op, nil)
	if tr := sp.Trace; tr != nil {
		tr.Mode = exec.Label()
		tr.Rows = s.table.Rows()
	}
	return sp
}

// SumRange answers "select sum(attr) where lo <= attr < hi", pushing the
// fold down into the mode's access path (cracked pieces, sorted slices or
// parallel scan chunks) and merging pending insertions that fall inside
// the range first.
func (s *Store) SumRange(attr string, lo, hi int64) (int64, error) {
	exec, err := s.executor()
	if err != nil {
		return 0, err
	}
	sp := s.beginRange(exec, obs.OpSum)
	v, err := exec.Sum(attr, lo, hi)
	s.ob.End(sp, 0, 0, v, err)
	return v, err
}

// MinMaxRange answers "select min(attr), max(attr) where lo <= attr < hi";
// ok is false when no value qualifies.
func (s *Store) MinMaxRange(attr string, lo, hi int64) (mn, mx int64, ok bool, err error) {
	exec, err := s.executor()
	if err != nil {
		return 0, 0, false, err
	}
	sp := s.beginRange(exec, obs.OpMinMax)
	mn, mx, ok, err = exec.MinMax(attr, lo, hi)
	s.ob.End(sp, 0, 0, 0, err)
	return mn, mx, ok, err
}

// SelectRows materializes the base row ids of the qualifying tuples, in
// unspecified order — the position list late tuple reconstruction feeds
// to project operators. Rows appended by Insert continue the base
// position sequence.
func (s *Store) SelectRows(attr string, lo, hi int64) ([]uint32, error) {
	exec, err := s.executor()
	if err != nil {
		return nil, err
	}
	sp := s.beginRange(exec, obs.OpRows)
	rows, err := exec.SelectRows(attr, lo, hi)
	s.ob.End(sp, 0, 0, int64(len(rows)), err)
	return rows, err
}

// Insert appends a value to a column as a pending insertion, merged into
// the adaptive index lazily (Ripple). Supported by the adaptive,
// stochastic and holistic modes.
func (s *Store) Insert(attr string, v int64) error {
	return s.write(durable.Record{Kind: durable.KindInsert, Attr: attr, A: v}, "inserts")
}

// write applies one mutation through the executor's update path, logging
// it first when the store is durable.
func (s *Store) write(r durable.Record, what string) error {
	exec, err := s.executor()
	if err != nil {
		return err
	}
	if !exec.Updatable() {
		return fmt.Errorf("holistic: mode %v does not support %s", s.cfg.Mode, what)
	}
	if s.dur != nil {
		return s.dur.logged(r)
	}
	return applyRecord(exec, r)
}

// applyRecord runs one mutation record through the executor's write path
// — directly, under the WAL lock, or on replay.
func applyRecord(exec *engine.Executor, r durable.Record) error {
	switch r.Kind {
	case durable.KindInsert:
		return exec.Insert(r.Attr, r.A)
	case durable.KindDelete:
		return exec.Delete(r.Attr, r.A)
	case durable.KindUpdate:
		return exec.Update(r.Attr, r.A, r.B)
	}
	return fmt.Errorf("holistic: unknown record kind %d", r.Kind)
}

// Delete removes attr's value from the row currently holding v — the
// lowest such row id when v occurs more than once — as a pending
// deletion merged lazily like inserts. Like Insert, it is a
// per-attribute operation: the row keeps its values in other
// attributes and only stops qualifying for predicates (and
// aggregation) on attr. The merge targets the resolved row, so
// materialized results and conjunctive probes stay consistent even for
// duplicated values. The row is resolved through the index: pending
// operations on exactly v are merged into attr's cracker column, as a
// read of v would merge them, and the lowest row id holding v is read
// out of the one piece v falls into — a piece scan that cracks nothing,
// so a write on a refined column costs microseconds wherever its victim
// sits, and on a barely cracked one up to a pass over a large piece (an
// attribute no query has touched gets its cracker built first).
// Concurrent writers are serialized; readers are never held up behind
// one.
// Supported by the adaptive, stochastic and holistic modes; the sorted
// and scan modes have no pending-update machinery (their index is the
// data) and return an error.
func (s *Store) Delete(attr string, v int64) error {
	return s.write(durable.Record{Kind: durable.KindDelete, Attr: attr, A: v}, "deletes")
}

// Update changes the tuple whose current value in attr is oldV (the
// lowest such row id, resolved through the index as for Delete) to newV
// — a pending deletion followed by a pending insertion at the same row
// id, so the tuple keeps its identity. Supported by the same modes as
// Delete.
func (s *Store) Update(attr string, oldV, newV int64) error {
	return s.write(durable.Record{Kind: durable.KindUpdate, Attr: attr, A: oldV, B: newV}, "updates")
}

// Query starts a multi-predicate query: chain Where clauses (ANDed
// range conjuncts) and finish with Count, Sum, Rows or Values.
//
//	n, err := store.Query().
//	        Where("shipdate", loDay, hiDay).
//	        Where("discount", 400, 601).
//	        Count()
//
// The planner estimates every conjunct's selectivity (exactly where the
// mode's index structures can answer, uniformly over the value domain
// otherwise), evaluates the most selective conjunct through the mode's
// native access path, and refines the resulting candidate rows against
// the remaining conjuncts, each by positional probes into the base data
// (late tuple reconstruction) or by selecting it through its own index
// and intersecting, whichever the residual rule costs lower. The
// intermediate selection vector is chosen per query from those
// estimates: dense driving conjuncts flow through pooled word-packed
// bitmaps (branch-free intersection, popcount counts, zero steady-state
// allocations), sparse ones through position lists (DESIGN.md §5). Under ModeHolistic every conjunct also feeds
// the daemon's index space, so background refinement spreads across all
// touched attributes. Pending inserts/deletes/updates are merged so
// results stay correct; rows lacking a value in a referenced attribute
// (inserted into other attributes only, or deleted) never qualify.
func (s *Store) Query() *Query {
	return &Query{s: s}
}

// Query is a multi-predicate query under construction. Values are
// returned by the terminal methods; the builder itself never fails
// early (errors surface at execution).
type Query struct {
	s     *Store
	preds []query.Predicate
}

// Where adds the conjunct lo <= attr < hi. Repeating an attribute
// intersects the ranges.
func (q *Query) Where(attr string, lo, hi int64) *Query {
	q.preds = append(q.preds, query.Predicate{Attr: attr, Lo: lo, Hi: hi})
	return q
}

// Count answers "select count(*) where <conjunction>".
func (q *Query) Count() (int, error) {
	r, err := q.s.runner()
	if err != nil {
		return 0, err
	}
	return r.Count(q.preds)
}

// Sum answers "select sum(attr) where <conjunction>"; attr need not be
// among the predicates.
func (q *Query) Sum(attr string) (int64, error) {
	r, err := q.s.runner()
	if err != nil {
		return 0, err
	}
	return r.Sum(attr, q.preds)
}

// Rows materializes the qualifying base row ids in ascending order.
func (q *Query) Rows() ([]uint32, error) {
	r, err := q.s.runner()
	if err != nil {
		return nil, err
	}
	return r.Rows(q.preds)
}

// Values materializes the requested attributes of the qualifying
// tuples, one aligned slice per attribute, in ascending row-id order.
func (q *Query) Values(attrs ...string) ([][]int64, error) {
	r, err := q.s.runner()
	if err != nil {
		return nil, err
	}
	return r.Values(attrs, q.preds)
}

// Min answers "select min(attr) where <conjunction>"; ok is false when
// no tuple qualifies. A single conjunct on attr itself delegates to the
// mode's native MinMax pushdown; otherwise the extremum folds late over
// the surviving selection vector. attr need not be among the
// predicates.
func (q *Query) Min(attr string) (v int64, ok bool, err error) {
	r, err := q.s.runner()
	if err != nil {
		return 0, false, err
	}
	mn, _, ok, err := r.MinMax(attr, q.preds)
	return mn, ok, err
}

// Max answers "select max(attr) where <conjunction>"; ok is false when
// no tuple qualifies.
func (q *Query) Max(attr string) (v int64, ok bool, err error) {
	r, err := q.s.runner()
	if err != nil {
		return 0, false, err
	}
	_, mx, ok, err := r.MinMax(attr, q.preds)
	return mx, ok, err
}

// Agg is one aggregate of a grouped query; build them with Count, Sum,
// Min and Max and pass them to GroupedQuery.Aggregate.
type Agg struct {
	agg groupby.Agg
}

// Count is the count(*) aggregate of a grouped query.
func Count() Agg { return Agg{groupby.Count()} }

// Sum is the sum(attr) aggregate of a grouped query.
func Sum(attr string) Agg { return Agg{groupby.Sum(attr)} }

// Min is the min(attr) aggregate of a grouped query.
func Min(attr string) Agg { return Agg{groupby.Min(attr)} }

// Max is the max(attr) aggregate of a grouped query.
func Max(attr string) Agg { return Agg{groupby.Max(attr)} }

// GroupBy turns the query into a grouped aggregation over the given
// attributes; finish with Aggregate. Zero Where clauses group the whole
// relation.
//
//	res, err := store.Query().
//	        Where("shipdate", 0, cutoff).
//	        GroupBy("returnflag", "linestatus").
//	        Aggregate(holistic.Count(), holistic.Sum("quantity"))
//
// The selection pipeline is the conjunctive one (planned drive, bitmap
// intermediates, update-aware probes); the grouping itself runs fused
// multi-aggregate kernels under one of three physical strategies picked
// per query — dense bit-packed accumulators for small composite key
// domains, open-addressing hash accumulators otherwise, and sort-based
// grouping that walks the key's index clusters in order with no hash
// table at all when the group key is an indexed attribute. Under
// ModeHolistic a single key that is not dense-eligible, over a selection
// dense enough to walk, joins the daemon's index space, so idle-time
// refinement converts hash grouping into the sort strategy over time.
// See DESIGN.md §6.
func (q *Query) GroupBy(attrs ...string) *GroupedQuery {
	return &GroupedQuery{q: q, keys: attrs}
}

// GroupedQuery is a grouped aggregation under construction.
type GroupedQuery struct {
	q    *Query
	keys []string
}

// GroupedResult is an ordered grouped-aggregation result table: group
// g's key is (Keys[0][g], ..., Keys[k-1][g]) — ascending
// lexicographically in the GroupBy attribute order — and its aggregate
// values are (Aggs[0][g], ...), aligned with the Aggregate list.
type GroupedResult struct {
	// KeyAttrs echoes the GroupBy attributes.
	KeyAttrs []string
	Keys     [][]int64
	Aggs     [][]int64
}

// Len returns the number of groups.
func (r *GroupedResult) Len() int {
	if len(r.Keys) == 0 {
		return 0
	}
	return len(r.Keys[0])
}

// Aggregate executes the grouped query with the given fused aggregates
// (computed in one pass over the qualifying rows) and returns the
// ordered result table.
func (g *GroupedQuery) Aggregate(aggs ...Agg) (*GroupedResult, error) {
	r, err := g.q.s.runner()
	if err != nil {
		return nil, err
	}
	specs := make([]groupby.Agg, len(aggs))
	for i, a := range aggs {
		specs[i] = a.agg
	}
	res, err := r.Grouped(g.keys, specs, g.q.preds)
	if err != nil {
		return nil, err
	}
	return &GroupedResult{
		KeyAttrs: append([]string(nil), g.keys...),
		Keys:     res.Keys,
		Aggs:     res.Aggs,
	}, nil
}

// Join turns the query into the left side of an equi-join with another
// query (typically over a different Store — the right side), matching
// rows with equal values in leftAttr and rightAttr. Each side's Where
// conjuncts pre-filter its relation through the usual selectivity-
// ordered pipeline; a side without predicates joins its whole relation.
// Finish with Count, Sum, Pairs, or GroupBy/Aggregate:
//
//	n, err := lineitem.Query().
//	        Where("l_receiptdate", lo, hi).
//	        Join(orders.Query(), "l_orderkey", "o_orderkey").
//	        Count()
//
// The physical strategy is picked per query (DESIGN.md §7): a
// radix-partitioned open-addressing hash join building over the
// smaller filtered side, or — when both join attributes have refined
// key-ordered index paths — an index-clustered merge join that
// intersects cluster value ranges and builds no hash table at all.
// Under ModeHolistic both join attributes feed their daemons' index
// spaces while both selections are dense enough to walk, so idle
// refinement converts hash joins into merge joins over time. Rows
// lacking a value in the join attribute (or in any referenced payload
// attribute) never match.
func (q *Query) Join(other *Query, leftAttr, rightAttr string) *JoinQuery {
	return &JoinQuery{left: q, right: other, leftAttr: leftAttr, rightAttr: rightAttr}
}

// JoinQuery is an equi-join under construction. Values are returned by
// the terminal methods; errors surface at execution.
type JoinQuery struct {
	left, right         *Query
	leftAttr, rightAttr string
}

// build resolves both sides' runners and assembles the executable join.
func (jq *JoinQuery) build() (*query.Join, error) {
	lr, err := jq.left.s.runner()
	if err != nil {
		return nil, err
	}
	rr, err := jq.right.s.runner()
	if err != nil {
		return nil, err
	}
	return lr.Join(rr, jq.leftAttr, jq.rightAttr, jq.left.preds, jq.right.preds), nil
}

// side resolves which relation an attribute belongs to: it must exist
// in exactly one of the two (qualify by splitting the query sides
// otherwise — the join builder has no rename machinery).
func (jq *JoinQuery) side(attr string) (join.Side, error) {
	inL := jq.left.s.table.Column(attr) != nil
	inR := jq.right.s.table.Column(attr) != nil
	switch {
	case inL && inR:
		return 0, fmt.Errorf("holistic: attribute %q exists on both join sides", attr)
	case inL:
		return join.Left, nil
	case inR:
		return join.Right, nil
	default:
		return 0, fmt.Errorf("holistic: unknown attribute %q", attr)
	}
}

// Count answers "select count(*)" over the matching pairs.
func (jq *JoinQuery) Count() (int64, error) {
	j, err := jq.build()
	if err != nil {
		return 0, err
	}
	return j.Count()
}

// Sum answers "select sum(attr)" over the matching pairs; attr may
// live on either side (a row matching k rows of the other relation
// contributes its value k times).
func (jq *JoinQuery) Sum(attr string) (int64, error) {
	side, err := jq.side(attr)
	if err != nil {
		return 0, err
	}
	j, err := jq.build()
	if err != nil {
		return 0, err
	}
	return j.Sum(side, attr)
}

// Pairs materializes the matching (left row id, right row id) pairs,
// sorted ascending by left then right row id.
func (jq *JoinQuery) Pairs() (left, right []uint32, err error) {
	j, err := jq.build()
	if err != nil {
		return nil, nil, err
	}
	left, right, err = j.Pairs()
	if err != nil {
		return nil, nil, err
	}
	sort.Sort(&pairSorter{left, right})
	return left, right, nil
}

type pairSorter struct{ l, r []uint32 }

func (p *pairSorter) Len() int { return len(p.l) }
func (p *pairSorter) Less(i, j int) bool {
	if p.l[i] != p.l[j] {
		return p.l[i] < p.l[j]
	}
	return p.r[i] < p.r[j]
}
func (p *pairSorter) Swap(i, j int) {
	p.l[i], p.l[j] = p.l[j], p.l[i]
	p.r[i], p.r[j] = p.r[j], p.r[i]
}

// GroupBy turns the join into a grouped aggregation over the matching
// pairs; the group-by attributes and the aggregates may reference
// either side's columns. Finish with Aggregate.
func (jq *JoinQuery) GroupBy(attrs ...string) *JoinGroupedQuery {
	return &JoinGroupedQuery{jq: jq, keys: attrs}
}

// JoinGroupedQuery is a grouped join aggregation under construction.
type JoinGroupedQuery struct {
	jq   *JoinQuery
	keys []string
}

// Aggregate executes the grouped join with the given fused aggregates
// and returns the ordered result table.
func (g *JoinGroupedQuery) Aggregate(aggs ...Agg) (*GroupedResult, error) {
	j, err := g.jq.build()
	if err != nil {
		return nil, err
	}
	keys := make([]query.GroupKey, len(g.keys))
	for i, k := range g.keys {
		side, err := g.jq.side(k)
		if err != nil {
			return nil, err
		}
		keys[i] = query.GroupKey{Side: side, Attr: k}
	}
	gaggs := make([]query.GroupAgg, len(aggs))
	for i, a := range aggs {
		ga := query.GroupAgg{Agg: a.agg}
		if a.agg.Kind != groupby.KindCount {
			side, err := g.jq.side(a.agg.Attr)
			if err != nil {
				return nil, err
			}
			ga.Side = side
		}
		gaggs[i] = ga
	}
	res, err := j.Grouped(keys, gaggs)
	if err != nil {
		return nil, err
	}
	return &GroupedResult{
		KeyAttrs: append([]string(nil), g.keys...),
		Keys:     res.Keys,
		Aggs:     res.Aggs,
	}, nil
}

// AddPotentialIndex registers attr in the potential configuration
// (ModeHolistic): the daemon may refine it before any query arrives —
// how the paper exploits idle time before a workload.
func (s *Store) AddPotentialIndex(attr string) error {
	exec, err := s.executor()
	if err != nil {
		return err
	}
	if exec.Daemon() == nil {
		return fmt.Errorf("holistic: mode %v has no potential configuration", s.cfg.Mode)
	}
	return exec.AddPotential(attr)
}

// daemonOf returns the holistic daemon behind exec: nil before the first
// query has built the executor, and under every other mode.
func daemonOf(exec *engine.Executor) *holistic.Daemon {
	if exec == nil {
		return nil
	}
	return exec.Daemon()
}

// Stats summarizes the store's self-tuning state.
type Stats struct {
	// Mode echoes the configured mode.
	Mode Mode
	// Pieces is the total number of index partitions across all adaptive
	// indices (0 for non-cracking modes).
	Pieces int
	// Refinements counts successful background refinement actions
	// (ModeHolistic only).
	Refinements int64
	// Activations counts daemon tuning cycles that ran workers
	// (ModeHolistic only).
	Activations int
}

// Stats returns a snapshot of the tuning telemetry. It is a pure read:
// on a store that has not executed any query yet (no executor built, no
// daemon started) it returns a zero snapshot instead of building the
// executor as a side effect.
func (s *Store) Stats() Stats {
	exec := s.exec.Load()
	st := Stats{Mode: s.cfg.Mode}
	if exec != nil {
		st.Pieces = exec.TotalPieces()
	}
	if d := daemonOf(exec); d != nil {
		st.Refinements = d.Refinements()
		st.Activations = int(d.CycleTotals().Cycles)
	}
	return st
}

// Close stops background tuning; a durable store additionally writes a
// final snapshot of any unsnapshotted records and the clean-shutdown
// marker, so the next OpenStore skips WAL replay. Close is idempotent;
// queries issued after Close return ErrClosed.
func (s *Store) Close() { s.shutdown(true) }

// shutdown releases everything the store acquired: the registry entry,
// the durability engine with its snapshot timer, the executor (and with
// it the holistic daemon and its workers) and the trace sink. flush is false
// only for a store whose open failed partway (discard): its WAL file is
// closed, but no final snapshot or clean marker is written over a
// directory recovery could not finish with.
//
// The store lock is released before the durability flush and the
// executor shutdown: a background snapshot may be mid-checkpoint, and
// waiting for it while holding the lock every query path needs would
// stall the whole store behind that flush.
func (s *Store) shutdown(flush bool) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	exec, dur, sink := s.exec.Load(), s.dur, s.traceSink
	s.traceSink = nil
	obs.Unregister(s.obsName)
	s.mu.Unlock()
	if dur != nil {
		dur.close(flush)
	}
	if exec != nil {
		exec.Close()
	}
	if sink != nil {
		_ = sink.Close()
	}
}

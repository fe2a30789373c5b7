// Package engine is the minimal bulk-processing column-store the
// reproduction runs on (DESIGN.md §3 records the substitution for
// MonetDB): tables of dense integer columns, a select operator per
// indexing mode, late tuple reconstruction, and the executor glue that
// the benchmark harness drives.
//
// One Executor exists per indexing approach compared in Section 5:
//
//	ModeScan       — plain parallel scans, no indexing
//	ModeOffline    — pre-sorted columns, binary-search selects
//	ModeOnline     — scan for an epoch, then sort, then binary search
//	ModeAdaptive   — database cracking (parallel partition & merge, PVDC)
//	ModeStochastic — stochastic cracking (PVSDC)
//	ModeCCGI       — the mP-CCGI multi-core baseline
//	ModeHolistic   — cracking plus the holistic indexing daemon
package engine

import (
	"fmt"
	"sync"

	"holistic/internal/column"
	"holistic/internal/join"
)

// Table is a named set of equally long columns (one relation, vertically
// fragmented as in Section 3.1).
type Table struct {
	name   string
	order  []string
	byName map[string]*column.Column
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, byName: make(map[string]*column.Column)}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// AddColumn attaches a column; all columns of a table must have the same
// length (checked so position alignment — the backbone of late tuple
// reconstruction — cannot silently break).
func (t *Table) AddColumn(c *column.Column) error {
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("engine: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.order) > 0 && c.Len() != t.byName[t.order[0]].Len() {
		return fmt.Errorf("engine: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.byName[t.order[0]].Len())
	}
	t.order = append(t.order, c.Name())
	t.byName[c.Name()] = c
	return nil
}

// MustAddColumn is AddColumn for static table construction.
func (t *Table) MustAddColumn(c *column.Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// Column returns a column by name (nil if absent).
func (t *Table) Column(name string) *column.Column { return t.byName[name] }

// ColumnNames returns the attribute names in insertion order.
func (t *Table) ColumnNames() []string { return append([]string(nil), t.order...) }

// Rows returns the number of tuples (0 for an empty table).
func (t *Table) Rows() int {
	if len(t.order) == 0 {
		return 0
	}
	return t.byName[t.order[0]].Len()
}

// Executor is a query-processing mode: it answers range selections over
// the attributes of one table, building or refining whatever index
// structures its mode prescribes as a side effect.
//
// Beyond Count, every mode answers the aggregate/materialization forms
// with the aggregation pushed down into its native access path — piece
// traversal for the cracking modes, binary-search slices for the sorted
// modes, parallel chunked folds for the scan and CCGI modes — never
// materialize-then-fold.
type Executor interface {
	// Label names the mode as the paper's figures do.
	Label() string
	// Count answers "select count(*) from R where lo <= attr < hi".
	Count(attr string, lo, hi int64) (int, error)
	// Sum answers "select sum(attr) from R where lo <= attr < hi".
	Sum(attr string, lo, hi int64) (int64, error)
	// MinMax answers "select min(attr), max(attr) from R where
	// lo <= attr < hi"; ok is false when no tuple qualifies.
	MinMax(attr string, lo, hi int64) (mn, mx int64, ok bool, err error)
	// SelectRows materializes the base row ids of qualifying tuples, in
	// unspecified order — the position list late tuple reconstruction
	// feeds to project operators.
	SelectRows(attr string, lo, hi int64) ([]uint32, error)
	// Close releases background resources (daemons).
	Close()
}

// Inserter is implemented by executors that support the update scenarios
// of Section 5.7 (pending insertions merged via Ripple).
type Inserter interface {
	Insert(attr string, v int64) error
}

// Deleter is implemented by executors that support pending deletions:
// Delete removes attr's value from the row currently holding v (the
// lowest such row id when the value occurs more than once). It is a
// per-attribute operation, like Insert: the row's values in other
// attributes are unaffected.
type Deleter interface {
	Delete(attr string, v int64) error
}

// Updater is implemented by executors that support pending value
// updates, modelled as a deletion followed by an insertion at the same
// row id, so the tuple keeps its identity across the update.
type Updater interface {
	Update(attr string, oldV, newV int64) error
}

// Viewer provides update-aware positional access to an attribute: the
// probe side of late tuple reconstruction. The returned view reflects
// the attribute's current logical state — base values, appended rows,
// deletions and updates — regardless of how much of the pending-update
// queue has been merged into the attribute's index structures.
// Executors without update support are not Viewers; callers fall back
// to the base column, which is by construction the current state there.
type Viewer interface {
	View(attr string) (column.View, error)
}

// CardEstimator lets an executor answer "how many tuples fall in
// [lo, hi) on attr" from its index structures without touching data.
// exact reports a true count (sorted column, existing cracker
// boundaries); ok is false when the executor has no basis for an
// estimate and the caller should fall back to a uniform-domain guess.
// The conjunctive query planner uses this to order predicates by
// selectivity.
type CardEstimator interface {
	EstimateCount(attr string, lo, hi int64) (est float64, exact, ok bool)
}

// BitmapSelector is implemented by executors whose select operator can
// deliver the qualifying positions as a word-packed bitmap instead of a
// materialized position list. The executor resets bm to cover its
// position universe (base rows plus appended pending rows) and sets one
// bit per qualifying row id, building or refining its index structures
// exactly as SelectRows would. Callers pass a pooled bitmap, so a
// steady-state dense select allocates nothing; the conjunctive query
// runner picks this path when the driving conjunct is dense enough that
// bits beat 32-bit positions (see internal/query).
type BitmapSelector interface {
	SelectBitmap(attr string, lo, hi int64, bm *column.Bitmap) error
}

// KeyOrderWalker is implemented by executors whose index structures can
// stream an attribute in key-clustered order: a sequence of clusters,
// each a slice of values with the aligned base row ids, such that the
// value sets of successive clusters are disjoint and ascending (every
// value of an earlier cluster is strictly below every value of a later
// one). Values inside one cluster are unordered. Sorted columns stream
// one cluster per run of equal values; cracker columns stream their
// pieces, merging any pending updates first so the stream reflects the
// attribute's current logical state. The grouped-aggregation subsystem
// uses this as the access path of sort-based (index-clustered) grouping:
// each cluster is aggregated with a small local accumulator and groups
// emit in key order with no global hash table — the holistic payoff,
// since background refinement keeps shrinking the clusters.
type KeyOrderWalker interface {
	// KeyOrderSpan estimates the value span one streamed cluster of attr
	// covers right now (sorted columns: 1; crackers: domain span divided
	// by the piece count). ok is false when no key-ordered access path
	// currently exists for attr, in which case WalkKeyOrder would decline
	// too.
	KeyOrderSpan(attr string) (span float64, ok bool)
	// WalkKeyOrder streams attr's clusters in ascending key order; fn
	// must not retain the slices. ok is false (and fn is never called)
	// when the executor has no key-ordered access path for attr — the
	// caller falls back to hash grouping.
	WalkKeyOrder(attr string, fn func(vals []int64, rows []uint32)) (ok bool, err error)
}

// PredicateSink is implemented by executors that want to observe every
// predicate of a multi-attribute conjunctive query — not only the one
// the planner chose to drive the select. Holistic indexing uses it to
// admit every touched attribute into the index space so background
// refinement spreads across all columns of the workload.
type PredicateSink interface {
	NotePredicate(attr string) error
}

// PredicateSpanSink extends PredicateSink with the predicate's key
// range [lo, hi), so the executor can attribute the access to a region
// of the key space (the refinement-economics heatmaps) in addition to
// admitting the attribute. The query planner prefers this interface
// over PredicateSink when the executor implements it.
type PredicateSpanSink interface {
	NotePredicateSpan(attr string, lo, hi int64) error
}

// HashJoin builds a hash table over build and probes it with probe,
// returning for every probe position the matching build position (-1 if
// none; the last build occurrence wins for duplicated keys). The table
// is the join subsystem's open-addressing map rather than a Go map —
// no per-bucket pointer chasing, no interface boxing; full join plans
// (radix-partitioned, duplicate-preserving, selection-aware) live in
// internal/join.
func HashJoin(build, probe []int64) []int32 {
	ht := buildJoinMap(build)
	out := make([]int32, len(probe))
	for i, k := range probe {
		if j, ok := ht.Get(k); ok {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}

func buildJoinMap(build []int64) *join.Map {
	ht := join.NewMap(len(build))
	for i, k := range build {
		ht.Put(k, int32(i))
	}
	return ht
}

// ParallelHashJoin is HashJoin with the probe phase split across workers.
func ParallelHashJoin(build, probe []int64, workers int) []int32 {
	if workers < 2 || len(probe) < 4096 {
		return HashJoin(build, probe)
	}
	ht := buildJoinMap(build)
	out := make([]int32, len(probe))
	var wg sync.WaitGroup
	chunk := (len(probe) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(probe) {
			break
		}
		hi := lo + chunk
		if hi > len(probe) {
			hi = len(probe)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if j, ok := ht.Get(probe[i]); ok {
					out[i] = j
				} else {
					out[i] = -1
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Grouped aggregation lives in internal/groupby: fused multi-aggregate
// plans over selection vectors, with dense/hash/sort physical
// strategies (the former map-based GroupSums helper it supersedes was
// removed).

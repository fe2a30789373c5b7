// Package stats maintains the per-index workload statistics and the index
// space of holistic indexing (Section 4.1/4.2 of the paper).
//
// For every adaptive index it tracks how often user queries accessed it
// (fI), how often a query was answered without any refinement because the
// requested bounds already existed (fIh, the "exact hit" count), and —
// via the cracker column itself — how many pieces it currently has. From
// these it derives the priority weight of the four index-decision
// strategies:
//
//	W1: WI = d(I, Iopt)            — prefer large partitions
//	W2: WI = fI * d                — large partitions, frequently accessed
//	W3: WI = (fI - fIh) * d        — discount indices with high hit rates
//	W4: random choice              — the paper's robust default
//
// where d(I, Iopt) = N/p - |L1| (Equation 1) is the distance of the index
// from its optimal status: an average piece size equal to the number of
// values fitting in the L1 cache.
//
// The registry also maintains the three configurations: Cactual (indices
// created by user queries), Cpotential (indices added by the system or
// the user before any query touched them) and Coptimal (indices whose
// distance reached zero — excluded from further refinement).
//
// The paper keeps per-index statistics in a latched heap. With the
// O(10-100) indices of its workloads a fresh linear scan under an RWMutex
// is equivalent and avoids re-heapifying on every piece-count change, so
// that is what this registry does; the latching is the same.
package stats

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"holistic/internal/cracking"
	"holistic/internal/updates"
)

// Strategy selects how the next index to refine is picked (Section 4.2,
// "Index Decision Strategies").
type Strategy int

const (
	// W1 prioritizes indices with large partitions.
	W1 Strategy = iota + 1
	// W2 prioritizes large partitions on frequently accessed indices.
	W2
	// W3 is W2 discounted by the exact-hit count.
	W3
	// W4 picks uniformly at random: the paper's recommended default
	// ("the random strategy gives a good and robust overall solution").
	W4
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case W1:
		return "W1"
	case W2:
		return "W2"
	case W3:
		return "W3"
	case W4:
		return "W4"
	default:
		return "W?"
	}
}

// State places an index in one of the three configurations.
type State int

const (
	// Actual: the index has been accessed by user queries (Cactual).
	Actual State = iota
	// Potential: registered but never queried (Cpotential).
	Potential
	// Optimal: average piece size reached |L1|; excluded from further
	// refinement (Coptimal).
	Optimal
)

// String names the configuration for telemetry.
func (s State) String() string {
	switch s {
	case Actual:
		return "actual"
	case Potential:
		return "potential"
	case Optimal:
		return "optimal"
	default:
		return "unknown"
	}
}

// Entry is the statistics node of one adaptive index. Its counters and
// state are atomics: the select operator, holistic workers and the
// telemetry readers all touch them concurrently. Pend is the queue of
// updates not yet merged into Col — the one the index was built with —
// so workers merge what they refine without asking anyone by name; nil
// for a read-only index.
type Entry struct {
	Name string
	Col  *cracking.Column
	Pend *updates.Pending

	state    atomic.Int64 // State
	accesses atomic.Int64 // fI: user queries that accessed the index
	hits     atomic.Int64 // fIh: user queries answered with an exact hit
}

// State returns the configuration the index currently belongs to.
func (e *Entry) State() State { return State(e.state.Load()) }

// Accesses returns fI.
func (e *Entry) Accesses() int64 { return e.accesses.Load() }

// Hits returns fIh.
func (e *Entry) Hits() int64 { return e.hits.Load() }

// Registry is the latched statistics store over the index space.
type Registry struct {
	mu      sync.RWMutex
	l1s     float64
	entries map[string]*Entry
	rng     *rand.Rand
}

// DefaultL1Values is the number of int64 values fitting a 32 KiB L1 data
// cache: the default optimal piece size |L1| of Equation (1).
const DefaultL1Values = 32 * 1024 / 8

// NewRegistry creates a registry with the given optimal piece size in
// values (l1Values <= 0 selects DefaultL1Values) and RNG seed for W4.
func NewRegistry(l1Values int, seed int64) *Registry {
	if l1Values <= 0 {
		l1Values = DefaultL1Values
	}
	return &Registry{
		l1s:     float64(l1Values),
		entries: make(map[string]*Entry),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// L1Values returns the optimal piece size in values.
func (r *Registry) L1Values() int { return int(r.l1s) }

// Add registers an index with its pending updates (nil for none).
// potential=false inserts into Cactual (a user query created it);
// potential=true into Cpotential (system- or user-provided candidate that
// has not been queried yet). Re-adding an existing name returns the
// existing entry.
func (r *Registry) Add(name string, col *cracking.Column, pend *updates.Pending, potential bool) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e
	}
	e := &Entry{Name: name, Col: col, Pend: pend}
	if potential {
		e.state.Store(int64(Potential))
	}
	r.entries[name] = e
	return e
}

// RestoreCounts reinstates persisted access statistics and state on a
// recovered index, so strategy weights and convergence accounting
// continue where the crashed process left them.
func (e *Entry) RestoreCounts(accesses, hits int64, st State) {
	e.accesses.Store(accesses)
	e.hits.Store(hits)
	e.state.Store(int64(st))
}

// Get returns the entry for name, or nil.
func (r *Registry) Get(name string) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[name]
}

// Len returns the number of registered indices (all configurations).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// RecordAccess updates fI (and fIh on an exact hit) after a user query
// touched the index, promoting Potential entries into Cactual. The select
// operator calls this on every selection, as in the paper; it touches
// only the entry's atomics, never the registry's lock.
//
//holistic:noalloc
func (e *Entry) RecordAccess(exactHit bool) {
	e.accesses.Add(1)
	if exactHit {
		e.hits.Add(1)
	}
	e.state.CompareAndSwap(int64(Potential), int64(Actual))
}

// Distance returns d(I, Iopt) = N/p - |L1| for the entry, clamped at 0.
func (r *Registry) Distance(e *Entry) float64 {
	d := e.Col.AvgPieceSize() - r.l1s
	if d < 0 {
		return 0
	}
	return d
}

// Weight computes the strategy weight of an entry (W4 has no weight; it
// returns the distance so optimality checks still work).
func (r *Registry) Weight(e *Entry, s Strategy) float64 {
	d := r.Distance(e)
	fI, fIh := e.accesses.Load(), e.hits.Load()
	switch s {
	case W2:
		return float64(fI) * d
	case W3:
		return float64(fI-fIh) * d
	default:
		return d
	}
}

// MarkOptimalIfDone moves the entry to Coptimal when its distance reached
// zero, reporting whether it did. Optimal indices are not picked for
// refinement again ("When WI becomes equal to zero, I is transferred from
// Cactual to Coptimal").
func (r *Registry) MarkOptimalIfDone(e *Entry) bool {
	if r.Distance(e) > 0 {
		return false
	}
	r.MarkOptimal(e)
	return true
}

// MarkOptimal moves the entry to Coptimal whatever its distance: the
// caller knows no crack can shrink its pieces further (a column holding
// one distinct value is one piece for good).
func (r *Registry) MarkOptimal(e *Entry) {
	e.state.Store(int64(Optimal))
}

// PickForRefinement selects the next index a holistic worker should
// refine. For W1-W3 it returns the maximum-weight entry of Cactual; for
// W4 a uniformly random one. When Cactual is empty, a random entry of
// Cpotential is returned instead (paper: "If Cactual is empty, an index
// is randomly picked from Cpotential"). nil means the whole space is
// optimal (or empty) and there is nothing to refine.
func (r *Registry) PickForRefinement(s Strategy) *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()

	var actual, potential []*Entry
	for _, e := range r.entries {
		switch State(e.state.Load()) {
		case Actual:
			actual = append(actual, e)
		case Potential:
			potential = append(potential, e)
		}
	}
	pickRandom := func(pool []*Entry) *Entry {
		if len(pool) == 0 {
			return nil
		}
		// Map iteration order is random but not seeded; sort for
		// reproducibility under a fixed seed, then draw.
		sort.Slice(pool, func(i, j int) bool { return pool[i].Name < pool[j].Name })
		return pool[r.rng.Intn(len(pool))]
	}

	if s == W4 {
		if e := pickRandom(actual); e != nil {
			return e
		}
		return pickRandom(potential)
	}

	var best *Entry
	var bestW float64
	for _, e := range actual {
		if r.Distance(e) <= 0 {
			continue
		}
		if w := r.Weight(e, s); best == nil || w > bestW || (w == bestW && e.Name < best.Name) {
			best, bestW = e, w
		}
	}
	if best != nil {
		return best
	}
	return pickRandom(potential)
}

// Entries returns a stable-ordered snapshot of all entries; used for
// telemetry, eviction and tests.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalSizeBytes sums the materialized sizes of all indices in the space:
// the quantity compared against the storage budget.
func (r *Registry) TotalSizeBytes() int64 {
	var total int64
	for _, e := range r.Entries() {
		total += e.Col.SizeBytes()
	}
	return total
}

// EvictLFU removes and returns the least frequently used index (smallest
// fI, ties broken by name), implementing the paper's storage-constraint
// policy ("indices are removed with a least frequently used (LFU) policy
// from the index space"). Optimal indices are eligible too: they cost
// storage like any other. Returns nil when the space is empty.
func (r *Registry) EvictLFU() *Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var victim *Entry
	for _, e := range r.entries {
		if victim == nil ||
			e.accesses.Load() < victim.accesses.Load() ||
			(e.accesses.Load() == victim.accesses.Load() && e.Name < victim.Name) {
			victim = e
		}
	}
	if victim != nil {
		delete(r.entries, victim.Name)
	}
	return victim
}

// TotalPieces sums the piece counts of every index: the cumulative
// partition count reported by Figure 6(c).
func (r *Registry) TotalPieces() int {
	total := 0
	for _, e := range r.Entries() {
		total += e.Col.Pieces()
	}
	return total
}

// Package cracking implements database cracking — the adaptive indexing
// technique of Idreos et al. (CIDR 2007) that holistic indexing builds on
// (Section 3.2 of the paper).
//
// A cracker column is a copy of a base column that is physically
// reorganized ("cracked") as a side effect of range selections: values
// smaller than a query bound are moved before it, values greater after
// it. The accumulated partitioning information — which contiguous piece
// of the array holds which value range — is kept in an AVL tree, the
// cracker index. As more queries (or holistic refinement actions) arrive,
// pieces shrink and selects touch less and less data.
//
// Concurrency follows the piece-latch design of Graefe et al. (PVLDB 2012)
// that the paper adopts (Section 4.2): the index structure is guarded by a
// short-critical-section RWMutex, while data reorganization takes a
// read/write latch on the individual piece being cracked, so user queries
// and holistic workers crack disjoint pieces of one column in parallel.
// Holistic workers never block on a piece latch — a failed try-lock makes
// the worker re-roll a different random pivot (Figure 3 of the paper).
package cracking

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"holistic/internal/avl"
)

// Kernel is inert: every value selects the one crack kernel (crackInTwo).
// The type, its constants and Config.Kernel are kept only because the
// frozen benchmark module names them.
type Kernel int

// See Kernel: both constants mean the same thing.
const (
	KernelInPlace Kernel = iota
	KernelVectorized
)

// Config controls cracking behaviour for one cracker column.
type Config struct {
	// Kernel is ignored (see the Kernel type).
	Kernel Kernel
	// ParallelWorkers > 1 enables the refined partition & merge
	// algorithm (Figure 4) for pieces of at least MinParallelPiece
	// values: the piece is sliced across this many goroutines, each
	// partitions its slice in place, and the misplaced runs are swapped
	// across the split.
	ParallelWorkers int
	// MinParallelPiece is the smallest piece worth parallelizing.
	// Defaults to 1<<16 values.
	MinParallelPiece int
	// RefineWorkers is the parallelism of holistic refinement cracks
	// (TryRefineAt), independent of the user-query parallelism: the
	// paper's uXwYxZ thread distributions give each holistic worker its
	// own small thread budget (e.g. u16w8x2 = 8 workers with 2 threads
	// each). Defaults to 1.
	RefineWorkers int
	// Stochastic enables stochastic cracking (Halim et al., PVLDB 2012):
	// each user-query crack first performs one auxiliary crack at a
	// random pivot inside the piece about to be cracked, bounding the
	// worst case on skewed/sequential workloads.
	Stochastic bool
	// WithRows is ignored: every tuple carries its rowid through each
	// reorganization, so select-project queries can reconstruct tuples
	// after cracking, and where the rowid is kept is the column's own
	// choice (see layout). The field is kept only because the frozen
	// benchmark module sets it.
	WithRows bool
	// Seed seeds the column's private RNG (stochastic pivots).
	Seed int64
}

// piece is one contiguous region of the cracker column. It is the value
// stored in the cracker index: the tree key is the piece's lower value
// bound and start is the position of its first element. A piece's end is
// the start of the next piece in key order (or the column length).
type piece struct {
	start int
	latch sync.RWMutex
}

// Column is a cracker column plus its cracker index.
type Column struct {
	name string

	// global is held shared by all cracking/select/refine operations and
	// exclusively by update merges (Ripple), which move piece boundaries
	// — the one mutation the piece-latch protocol cannot isolate.
	global sync.RWMutex

	// mu guards the cracker index tree, the vals/rows slice headers and
	// the layout.
	mu   sync.RWMutex
	tree *avl.Tree

	// vals holds values and rows their rowids, or vals holds packed words
	// and rows is nil: see layout, which only widen changes.
	vals []int64
	rows []uint32
	layout

	// domainLo/domainHi cache the column's value bounds for random-pivot
	// refinement. Guarded by mu.
	domainLo, domainHi int64

	// above is the scratch of boundariesAboveLocked, reused from merge to
	// merge under the exclusive column lock.
	above []*piece

	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand
}

// sentinelKey is the key of the boundary that starts the first piece.
// Every column always has it, so every position belongs to exactly one
// piece and every piece has exactly one owning tree node.
const sentinelKey = math.MinInt64

// New builds a cracker column from a copy of base. The copy is the
// "cracker column ACRK" of Section 3.2; the base column stays untouched.
func New(name string, base []int64, cfg Config) *Column {
	return NewCracked(name, base, cfg, 0, 0)
}

// NewCracked builds the cracker column already cracked on [lo, hi): the
// result equals New followed by SelectRange(lo, hi) — same boundaries,
// same values per piece — but the copy out of base is itself the crack at
// lo and the crack at hi follows in place (build), so the query that
// creates a cracker does not copy the column and then reorder all of it.
// An empty range (lo >= hi) cracks nothing, exactly as SelectRange would
// not. Under Config.Stochastic the auxiliary random crack of that first
// select is not taken.
func NewCracked(name string, base []int64, cfg Config, lo, hi int64) *Column {
	if cfg.MinParallelPiece == 0 {
		cfg.MinParallelPiece = 1 << 16
	}
	if cfg.ParallelWorkers < 1 {
		cfg.ParallelWorkers = 1
	}
	c := &Column{
		name: name,
		tree: avl.New(),
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	var nLo, nHi int
	c.vals, c.rows, c.layout, nLo, nHi, c.domainLo, c.domainHi = build(base, lo, hi)
	c.tree.Insert(sentinelKey, &piece{start: 0})
	if lo < hi {
		if lo != sentinelKey {
			c.tree.Insert(lo, &piece{start: nLo})
		}
		c.tree.Insert(hi, &piece{start: nHi})
	}
	return c
}

// Name returns the attribute name the cracker column indexes.
func (c *Column) Name() string { return c.name }

// Len returns the number of values in the cracker column.
func (c *Column) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.vals)
}

// all views the whole column as one segment. Caller holds mu or global.
func (c *Column) all() Segment { return c.segment(0, len(c.vals)) }

// segment views positions [pos, end). Caller holds global shared and the
// owning piece's latch, or the column exclusively.
//
//holistic:noalloc
func (c *Column) segment(pos, end int) Segment {
	s := Segment{vals: c.vals[pos:end], layout: c.layout}
	if !c.packed {
		s.rows = c.rows[pos:end]
	}
	return s
}

// Pieces returns the current number of pieces in the cracker column.
func (c *Column) Pieces() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tree.Len()
}

// Domain returns the (cached) minimum and maximum value in the column.
func (c *Column) Domain() (lo, hi int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.domainLo, c.domainHi
}

// Separated reports whether the boundaries already separate every value
// of the domain — one at each of lo+1 … hi — so that every piece holds one
// distinct value and no crack can shrink one, however large the pieces
// are. A column of one distinct value (or none) is the degenerate case.
// O(1) unless the column has as many boundaries as its domain has values.
func (c *Column) Separated() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.domainHi <= c.domainLo {
		return true
	}
	// Exact in uint64 across the whole int64 domain; the tree's sentinel
	// is not a boundary.
	need := uint64(c.domainHi) - uint64(c.domainLo)
	if uint64(c.tree.Len()-1) < need {
		return false
	}
	// Boundaries outside (lo, hi] — a query bound beyond the domain, a
	// pivot at lo — separate nothing.
	var inside uint64
	c.tree.AscendAfter(c.domainLo, func(k int64, _ avl.Value) bool {
		if k > c.domainHi {
			return false
		}
		inside++
		return true
	})
	return inside == need
}

// SizeBytes reports the memory the cracker column holds, the slack an
// insert opened included: the storage-budget accounting unit for the
// holistic index space. A packed column has no rowid array to count.
func (c *Column) SizeBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(cap(c.vals))*8 + int64(cap(c.rows))*4
}

// AvgPieceSize returns len/pieces, the |p| of Equation (1).
func (c *Column) AvgPieceSize() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.tree.Len() == 0 {
		return 0
	}
	return float64(len(c.vals)) / float64(c.tree.Len())
}

// Snapshot returns a copy of the current physical value order. Test and
// debugging helper; takes the column exclusively to get a torn-free view.
func (c *Column) Snapshot() []int64 {
	c.global.Lock()
	defer c.global.Unlock()
	return c.all().AppendValues(make([]int64, 0, len(c.vals)))
}

// SnapshotRows returns a copy of the rowids in physical order. Test and
// debugging helper, like Snapshot.
func (c *Column) SnapshotRows() []uint32 {
	c.global.Lock()
	defer c.global.Unlock()
	return c.all().AppendRows(make([]uint32, 0, len(c.vals)))
}

// pieceByPosLocked returns the piece containing position pos and its end.
// It exploits the cracking invariant that boundary keys and boundary
// positions are ordered identically. Caller must hold mu.
func (c *Column) pieceByPosLocked(pos int) (p *piece, end int) {
	var bestKey int64
	c.tree.FloorWhere(func(_ int64, v avl.Value) bool {
		return v.(*piece).start <= pos
	}, func(k int64, v avl.Value) {
		bestKey = k
		p = v.(*piece)
	})
	if p == nil {
		// pos < first piece start is impossible (sentinel starts at 0);
		// defensive fallback.
		_, pv, _ := c.tree.Min()
		p = pv.(*piece)
		bestKey = sentinelKey
	}
	if _, nv, ok := c.tree.Successor(bestKey); ok {
		end = nv.(*piece).start
	} else {
		end = len(c.vals)
	}
	return p, end
}

// PieceInfo describes one piece of the cracker column at a point in
// time: its value span [LoKey, HiKey) and position span [Start, End).
type PieceInfo struct {
	LoKey, HiKey int64
	Start, End   int
}

// Size returns the number of values in the piece.
func (p PieceInfo) Size() int { return p.End - p.Start }

// PieceBounds snapshots all pieces in key order. O(pieces); used by
// telemetry and by the pivot-choice ablation (the paper's discussion of
// biggest/smallest-piece targeting notes exactly this maintenance cost).
func (c *Column) PieceBounds() []PieceInfo {
	c.global.RLock()
	defer c.global.RUnlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]PieceInfo, 0, c.tree.Len())
	c.tree.Ascend(func(k int64, v avl.Value) bool {
		out = append(out, PieceInfo{LoKey: k, Start: v.(*piece).start})
		return true
	})
	for i := range out {
		if i+1 < len(out) {
			out[i].HiKey = out[i+1].LoKey
			out[i].End = out[i+1].Start
		} else {
			out[i].HiKey = math.MaxInt64
			out[i].End = len(c.vals)
		}
	}
	return out
}

// CheckInvariants validates the structural invariants of the cracker
// column; it returns a descriptive error on the first violation. Used by
// tests (including property-based ones) after arbitrary op sequences.
func (c *Column) CheckInvariants() error {
	c.global.Lock()
	defer c.global.Unlock()
	_, _, err := c.checkLocked()
	return err
}

// checkLocked is CheckInvariants under the exclusive column lock. Every
// piece is held to its key bounds by its extrema, one Bounds pass per
// piece, which also yields the column's value domain ((0, 0) when empty).
func (c *Column) checkLocked() (dLo, dHi int64, err error) {
	type bound struct {
		key   int64
		start int
	}
	var bounds []bound
	c.tree.Ascend(func(k int64, v avl.Value) bool {
		bounds = append(bounds, bound{k, v.(*piece).start})
		return true
	})
	if len(bounds) == 0 || bounds[0].key != sentinelKey || bounds[0].start != 0 {
		return 0, 0, fmt.Errorf("missing or misplaced sentinel boundary: %+v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i].start < bounds[i-1].start {
			return 0, 0, fmt.Errorf("boundary positions not monotone: %+v then %+v", bounds[i-1], bounds[i])
		}
		if bounds[i].start > len(c.vals) {
			return 0, 0, fmt.Errorf("boundary %+v beyond column length %d", bounds[i], len(c.vals))
		}
	}
	seen := false
	for i, b := range bounds {
		end := len(c.vals)
		if i+1 < len(bounds) {
			end = bounds[i+1].start
		}
		if b.start == end {
			continue
		}
		mn, mx := c.segment(b.start, end).Bounds()
		if b.key != sentinelKey && mn < b.key {
			return 0, 0, fmt.Errorf("value %d in piece [%d, %d) below its lower bound %d", mn, b.start, end, b.key)
		}
		if i+1 < len(bounds) && mx >= bounds[i+1].key {
			return 0, 0, fmt.Errorf("value %d in piece [%d, %d) not below next boundary %d", mx, b.start, end, bounds[i+1].key)
		}
		if !seen || mn < dLo {
			dLo = mn
		}
		if !seen || mx > dHi {
			dHi = mx
		}
		seen = true
	}
	return dLo, dHi, nil
}

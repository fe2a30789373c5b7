package cracking

import (
	"fmt"
	"math"
	"math/rand"

	"holistic/internal/avl"
)

// State is the physical state of a cracker column as the column stores
// it: the tuples in cracked physical order — packed words or values
// beside rowids, whichever its layout keeps — plus the piece-boundary
// table. It is what the durable layer persists, unconverted, and what
// Restore adopts: none of the cracking work is repeated and no array is
// decoded on the way out or packed again on the way in.
type State struct {
	Vals   []int64  // values, or words when Packed
	Rows   []uint32 // rowids beside values; nil when Packed
	Packed bool
	Ref    int64    // Packed: the smallest value the window holds
	Keys   []int64  // piece lower-bound keys; Keys[0] is the sentinel
	Starts []uint32 // piece start offsets, parallel to Keys
}

// ViewState calls fn with the column's physical state and returns its
// error. Vals and Rows are the column's own arrays, not copies: the global
// latch is held exclusively for the duration of the call, so no crack,
// select or merge is in flight and words, keys and starts are one cut; fn
// must not retain or change them.
func (c *Column) ViewState(fn func(State) error) error {
	c.global.Lock()
	defer c.global.Unlock()
	st := State{Vals: c.vals, Rows: c.rows, Packed: c.packed}
	if c.packed {
		st.Ref = c.ref()
	}
	st.Keys = make([]int64, 0, c.tree.Len())
	st.Starts = make([]uint32, 0, c.tree.Len())
	c.tree.Ascend(func(k int64, v avl.Value) bool {
		st.Keys = append(st.Keys, k)
		st.Starts = append(st.Starts, uint32(v.(*piece).start))
		return true
	})
	return fn(st)
}

// Restore rebuilds a cracker column from a state, taking ownership of its
// arrays in the layout they come in. The boundary table and every piece's
// value bounds are held to the invariants CheckInvariants enforces, by the
// same code; an inconsistent state (a corrupt or stale snapshot, or one
// without rowids) is rejected so the caller can fall back to rebuilding an
// unrefined column from the base data.
func Restore(name string, st State, cfg Config) (*Column, error) {
	if cfg.MinParallelPiece == 0 {
		cfg.MinParallelPiece = 1 << 16
	}
	if cfg.ParallelWorkers < 1 {
		cfg.ParallelWorkers = 1
	}
	if len(st.Keys) != len(st.Starts) {
		return nil, fmt.Errorf("cracking: restore %s: %d boundary keys, %d positions", name, len(st.Keys), len(st.Starts))
	}
	if st.Packed && st.Rows != nil || !st.Packed && len(st.Rows) != len(st.Vals) {
		return nil, fmt.Errorf("cracking: restore %s: rowid array mismatch", name)
	}
	c := &Column{
		name: name,
		tree: avl.New(),
		vals: st.Vals,
		rows: st.Rows,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	if st.Packed {
		// The window must end inside int64, as refFor makes it.
		if st.Ref > math.MaxInt64-(window-1) {
			return nil, fmt.Errorf("cracking: restore %s: packing window [%d, +2^32) leaves int64", name, st.Ref)
		}
		c.layout = packedAt(st.Ref)
	}
	for i := range st.Keys {
		if i > 0 && st.Keys[i] <= st.Keys[i-1] {
			return nil, fmt.Errorf("cracking: restore %s: boundary keys not increasing", name)
		}
		c.tree.Insert(st.Keys[i], &piece{start: int(st.Starts[i])})
	}
	var err error
	if c.domainLo, c.domainHi, err = c.checkLocked(); err != nil {
		return nil, fmt.Errorf("cracking: restore %s: %w", name, err)
	}
	// A wide column whose values fit one window by now is packed in
	// place: the data picks the layout, here as at first touch.
	if ref, ok := refFor(c.domainLo, c.domainHi); ok && !c.packed {
		c.layout = packedAt(ref)
		for i, v := range c.vals {
			c.vals[i] = c.word(v, c.rows[i])
		}
		c.rows = nil
	}
	return c, nil
}

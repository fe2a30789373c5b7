package cracking

import (
	"fmt"
	"math/rand"

	"holistic/internal/avl"
)

// ExportedState is the physical state of a cracker column in a form the
// durable layer can serialize: the values (and rowids) in cracked
// physical order plus the piece-boundary table. Restoring it rebuilds
// the column by taking the arrays and re-inserting the boundaries —
// none of the cracking work is repeated. The state is the same whatever
// the column's layout: ExportState decodes, Restore packs again.
type ExportedState struct {
	Vals   []int64
	Rows   []uint32 // nil when the column carries no rowids
	Keys   []int64  // piece lower-bound keys; Keys[0] is the sentinel
	Starts []uint32 // piece start offsets, parallel to Keys
}

// ExportState atomically captures the column's physical state. It takes
// the global latch exclusively, so no crack, select or merge is in
// flight while the arrays are copied.
func (c *Column) ExportState() ExportedState {
	c.global.Lock()
	defer c.global.Unlock()
	all := c.all()
	st := ExportedState{Vals: all.AppendValues(make([]int64, 0, all.Len()))}
	if all.HasRows() {
		st.Rows = all.AppendRows(make([]uint32, 0, all.Len()))
	}
	c.tree.Ascend(func(k int64, v avl.Value) bool {
		st.Keys = append(st.Keys, k)
		st.Starts = append(st.Starts, uint32(v.(*piece).start))
		return true
	})
	return st
}

// Restore rebuilds a cracker column from an exported state, taking
// ownership of the state's slices. The boundary table is validated
// against the same invariants CheckInvariants enforces; an inconsistent
// state (a corrupt or stale snapshot) is rejected so the caller can
// fall back to rebuilding an unrefined column from the base data.
func Restore(name string, st ExportedState, cfg Config) (*Column, error) {
	if cfg.MinParallelPiece == 0 {
		cfg.MinParallelPiece = 1 << 16
	}
	if cfg.ParallelWorkers < 1 {
		cfg.ParallelWorkers = 1
	}
	if len(st.Keys) == 0 || st.Keys[0] != sentinelKey || len(st.Keys) != len(st.Starts) || st.Starts[0] != 0 {
		return nil, fmt.Errorf("cracking: restore %s: missing or misplaced sentinel boundary", name)
	}
	if cfg.WithRows != (st.Rows != nil) || (st.Rows != nil && len(st.Rows) != len(st.Vals)) {
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
	for i := range st.Keys {
		if i > 0 {
			if st.Keys[i] <= st.Keys[i-1] {
				return nil, fmt.Errorf("cracking: restore %s: boundary keys not increasing", name)
			}
			if st.Starts[i] < st.Starts[i-1] || int(st.Starts[i]) > len(st.Vals) {
				return nil, fmt.Errorf("cracking: restore %s: boundary positions not monotone", name)
			}
		}
		c.tree.Insert(st.Keys[i], &piece{start: int(st.Starts[i])})
	}
	c.domainLo, c.domainHi = domain(st.Vals)
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("cracking: restore %s: %w", name, err)
	}
	// The domain is known here, so the layout is not a guess: pack in
	// place when the values fit one window.
	if ref, ok := refFor(c.domainLo, c.domainHi); ok && c.rows != nil {
		c.layout = packedAt(ref)
		for i, v := range c.vals {
			c.vals[i] = c.word(v, c.rows[i])
		}
		c.rows = nil
	}
	return c, nil
}

// Package updates implements the pending-updates store of adaptive
// indexing (Section 4.2, Updates; Section 5.7 of the paper), following
// the design of Idreos et al. ("Updating a Cracked Database", SIGMOD
// 2007): updates are buffered as pending insertions/deletions and merged
// into the cracker column lazily — by a query whose requested value range
// contains pending values, by a holistic worker whose random pivot falls
// into a piece with pending values, or by a Delete/Update that names its
// victim by a value with pending operations. An update is modelled as a
// deletion followed by an insertion.
package updates

import (
	"slices"
	"sync"

	"holistic/internal/cracking"
)

// Op is one pending operation against an attribute.
type Op struct {
	// Delete distinguishes pending deletions from pending insertions.
	Delete bool
	// Value is the attribute value inserted or deleted.
	Value int64
	// Row is the base row id of an insertion, or — when HasRow is set —
	// of the specific tuple a deletion targets.
	Row uint32
	// HasRow marks a row-targeted deletion: the merge removes exactly
	// (Value, Row) from a rowid-carrying cracker instead of an
	// unspecified occurrence of Value, keeping value-duplicate deletes
	// consistent with the row-level overlay conjunctive probes read.
	HasRow bool
}

// Pending buffers the not-yet-merged updates of one attribute in arrival
// order. It is safe for concurrent use: queries, the update stream and
// holistic workers all touch it.
type Pending struct {
	mu  sync.Mutex
	ops []Op
	// batch holds the operations one merge call took out of ops, reused
	// from call to call.
	batch []Op
}

// NewPending returns an empty store.
func NewPending() *Pending { return &Pending{} }

// AddInsert buffers a pending insertion.
func (p *Pending) AddInsert(v int64, row uint32) {
	p.mu.Lock()
	p.ops = append(p.ops, Op{Value: v, Row: row})
	p.mu.Unlock()
}

// AddDelete buffers a pending deletion of an unspecified occurrence of
// v (value/multiset semantics).
func (p *Pending) AddDelete(v int64) {
	p.mu.Lock()
	p.ops = append(p.ops, Op{Delete: true, Value: v})
	p.mu.Unlock()
}

// AddDeleteRow buffers a pending deletion of the tuple (v, row): the
// merge removes exactly that row when the cracker carries rowids.
func (p *Pending) AddDeleteRow(v int64, row uint32) {
	p.mu.Lock()
	p.ops = append(p.ops, Op{Delete: true, Value: v, Row: row, HasRow: true})
	p.mu.Unlock()
}

// AddUpdate buffers an update as a deletion followed by an insertion at
// the same row id, the paper's definition of an update with tuple
// identity preserved.
func (p *Pending) AddUpdate(oldV, newV int64, row uint32) {
	p.mu.Lock()
	p.ops = append(p.ops,
		Op{Delete: true, Value: oldV, Row: row, HasRow: true},
		Op{Value: newV, Row: row})
	p.mu.Unlock()
}

// Len returns the number of pending operations.
func (p *Pending) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ops)
}

// MergeRange merges every pending operation whose value lies in [lo, hi)
// into col via the Ripple algorithm, preserving arrival order, and
// returns how many operations were merged. Operations outside the range
// stay pending — "only those updates are merged on-the-fly". It is the
// check a query makes and the merge it triggers in one: with nothing in
// range it is a single pass over the queue that allocates nothing.
// The store's mutex is held across the merge itself, so a pending value
// is always observable — either still pending or already merged — never
// lost in between. Lock order is always Pending.mu before the column
// lock; no code path acquires them in the other order.
func (p *Pending) MergeRange(col *cracking.Column, lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	return p.mergeBetween(col, lo, hi-1)
}

// MergeValue merges the pending operations whose value is exactly v —
// what a write that names its victim by value needs merged before the
// index can answer for v. Unlike [v, v+1) it has no trouble with
// math.MaxInt64.
func (p *Pending) MergeValue(col *cracking.Column, v int64) int {
	return p.mergeBetween(col, v, v)
}

// mergeBetween merges the operations with first <= value <= last.
func (p *Pending) mergeBetween(col *cracking.Column, first, last int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	in := func(op Op) bool { return op.Value >= first && op.Value <= last }
	hit := slices.IndexFunc(p.ops, in)
	if hit < 0 {
		return 0
	}
	// Split before merging, so a merge that panics has not left its
	// operation queued for a second application.
	p.batch = p.batch[:0]
	kept := p.ops[:hit]
	for _, op := range p.ops[hit:] {
		if in(op) {
			p.batch = append(p.batch, op)
		} else {
			kept = append(kept, op)
		}
	}
	p.ops = kept
	for _, op := range p.batch {
		merge(col, op)
	}
	return len(p.batch)
}

// merge applies one operation to the cracker column.
func merge(col *cracking.Column, op Op) {
	switch {
	case !op.Delete:
		col.MergeInsert(op.Value, op.Row)
	case op.HasRow:
		col.MergeDeleteRow(op.Value, op.Row)
	default:
		col.MergeDelete(op.Value)
	}
}

// MergeAll merges every pending operation into col.
func (p *Pending) MergeAll(col *cracking.Column) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	toMerge := p.ops
	p.ops = nil
	for _, op := range toMerge {
		merge(col, op)
	}
	return len(toMerge)
}

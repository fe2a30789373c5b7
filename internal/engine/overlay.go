package engine

import (
	"cmp"
	"maps"
	"slices"

	"holistic/internal/column"
	"holistic/internal/durable"
	"holistic/internal/updates"
)

// attrUpdates is the update state of one attribute under the cracking
// modes (Section 5.7): the pending operations not yet merged into its
// cracker column, and the logical row-level state of every update
// regardless of how much of that queue has been merged — the probe side
// of late tuple reconstruction reads it through View, so conjunctive
// queries see current data. All of it is guarded by Executor.pendMu.
type attrUpdates struct {
	pend *updates.Pending
	// next is the base row id the next insertion gets: the first one
	// lands at table.Rows(), matching the position an append to the base
	// column would take, so row ids stay unambiguous across inserts.
	next uint32
	// tail[i] is the value of row table.Rows()+i, deleted marks rows
	// without a value, updated overrides values of existing rows.
	tail    []int64
	deleted map[uint32]struct{}
	updated map[uint32]int64
	// view is the last snapshot handed out, dropped by the attribute's
	// next mutation: queries pay the overlay map copy once per update
	// batch, not once per probe.
	view *column.View
}

// updatesLocked returns (creating if needed) attr's update state.
// Caller holds pendMu.
func (e *Executor) updatesLocked(attr string) *attrUpdates {
	u := e.updates[attr]
	if u == nil {
		u = &attrUpdates{pend: updates.NewPending(), next: uint32(e.table.Rows())}
		e.updates[attr] = u
	}
	return u
}

// Updatable reports whether the mode has an update path: the cracking
// modes do; the sorted and scan modes' index is the data.
func (e *Executor) Updatable() bool { return e.kind == kindCracker }

// Pending returns (creating if needed) the pending-updates store of attr.
func (e *Executor) Pending(attr string) *updates.Pending {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	return e.updatesLocked(attr).pend
}

// mutate is the shared front half of Insert, Delete and Update: it
// resolves the row the operation targets — the next appended position for
// an insertion (find nil), otherwise the lowest row id currently holding
// *find — and applies fn to the overlay and the pending queue, dropping
// the cached view.
//
// The victim comes out of the index, the way doradb resolves Key → RowID:
// the pending operations on exactly *find are merged into the attribute's
// cracker column (what a read of that value would do, counted in
// MergedUpdates like one), after which the tuples the column holds for
// *find are the rows that logically hold it, all in the one piece *find
// falls into; the lowest of their row ids is read there under the piece's
// read latch. Nothing is cracked. A write to an attribute no query has
// touched builds its cracker first, as a potential index.
//
// Writers are serialized by writeMu from resolve to apply, so two
// concurrent deletes of a duplicated value take two distinct rows; readers
// and the daemon are not held up — pendMu is taken only for the overlay
// edit, never across index work. Lock order: writeMu → Pending.mu →
// column locks, and writeMu → pendMu.
func (e *Executor) mutate(attr, op string, find *int64, fn func(u *attrUpdates, row uint32)) error {
	if !e.Updatable() {
		return ErrNoUpdatePath
	}
	base := e.table.Column(attr)
	if base == nil {
		return errf("engine: unknown attribute %q", attr)
	}
	var cp *crackerPath
	if find != nil {
		p, err := e.path(attr, 0, 0, true, true)
		if err != nil {
			return err
		}
		cp = p.(*crackerPath)
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	var row uint32
	if find != nil {
		var ok bool
		e.ob.Merged(cp.pend.MergeValue(cp.col, *find))
		if row, ok = cp.col.LowestRow(*find); !ok {
			return errf("engine: %s %s = %d: no such value", op, attr, *find)
		}
	}
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	u := e.updatesLocked(attr)
	if find == nil {
		row = u.next
		u.next++
	}
	fn(u, row)
	u.view = nil
	return nil
}

// Insert appends v to attr as a pending insertion, merged lazily by
// queries (and, under holistic indexing, by workers).
func (e *Executor) Insert(attr string, v int64) error {
	return e.mutate(attr, "insert", nil, func(u *attrUpdates, row uint32) {
		u.tail = append(u.tail, v)
		u.pend.AddInsert(v, row)
	})
}

// Delete removes attr's value from the row currently holding v — the
// lowest such row id when v occurs more than once — as a pending
// deletion merged lazily like inserts. Like Insert it is per-attribute:
// the row's values in other attributes are unaffected. The row is
// recorded in both the overlay and the pending operation, so the
// eventual index merge removes exactly that tuple and row-level probes
// stay consistent with the index even for duplicated values. Only
// without row ids does the merge remove an unspecified occurrence
// (multiset semantics; conjunctions are unavailable there anyway).
func (e *Executor) Delete(attr string, v int64) error {
	return e.mutate(attr, "delete", &v, func(u *attrUpdates, row uint32) {
		if u.deleted == nil {
			u.deleted = make(map[uint32]struct{})
		}
		u.deleted[row] = struct{}{}
		u.pend.AddDeleteRow(v, row)
	})
}

// Update changes the row currently holding oldV (the lowest such row id)
// to newV: a deletion followed by an insertion at the same row id, so
// the tuple keeps its identity (the paper's definition of an update,
// made row-stable). The merge is row-targeted, as for Delete.
func (e *Executor) Update(attr string, oldV, newV int64) error {
	return e.mutate(attr, "update", &oldV, func(u *attrUpdates, row uint32) {
		if u.updated == nil {
			u.updated = make(map[uint32]int64)
		}
		u.updated[row] = newV
		u.pend.AddUpdate(oldV, newV, row)
	})
}

// View provides update-aware positional access to attr: a snapshot of
// its current logical state — base values, appended rows, deletions and
// updates — regardless of how much of the pending queue has been merged
// into the index. For an attribute no update has touched that is the
// base column itself.
//
//holistic:noalloc
func (e *Executor) View(attr string) (column.View, error) {
	base := e.table.Column(attr)
	if base == nil {
		return column.View{}, errf("engine: unknown attribute %q", attr)
	}
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	u := e.updates[attr]
	if u == nil {
		return column.View{Base: base.Values()}, nil
	}
	if u.view == nil {
		u.view = u.snapshot(base.Values())
	}
	return *u.view, nil
}

// snapshot copies the overlay into an immutable view; the tail shares
// storage with the append-only record.
//
//holistic:alloc-ok one overlay copy per update batch, reused by every probe until the next mutation
func (u *attrUpdates) snapshot(base []int64) *column.View {
	w := &column.View{Base: base, Tail: u.tail[:len(u.tail):len(u.tail)]}
	if len(u.deleted) > 0 {
		w.Deleted = maps.Clone(u.deleted)
	}
	if len(u.updated) > 0 {
		w.Updated = maps.Clone(u.updated)
	}
	return w
}

// universe returns the size of the position space row ids of attr can
// occupy: base rows plus rows appended by pending insertions.
//
//holistic:noalloc
func (e *Executor) universe(attr string) int {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	if u := e.updates[attr]; u != nil {
		return int(u.next)
	}
	return e.table.Rows()
}

// exportAttrData names one attribute's durable content without copying
// it: the table's immutable base array, the overlay's append-only tail,
// and — the cut taken under pendMu — the updated rows as a sorted patch
// list and the sorted tombstones. The segment writer stores a patched row
// with its newest value and a deleted row with the value it last held, so
// recovery can rebuild a first-touch cracker from the base array and
// replay the deletions exactly as the normal write path would have.
func (e *Executor) exportAttrData(attr string) durable.ColumnData {
	cd := durable.ColumnData{Name: attr, Base: e.table.Column(attr).Values()}
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	u := e.updates[attr]
	if u == nil {
		return cd
	}
	cd.Tails = u.tail[:len(u.tail):len(u.tail)]
	for row, v := range u.updated {
		cd.Patch = append(cd.Patch, durable.RowValue{Row: row, Val: v})
	}
	slices.SortFunc(cd.Patch, func(a, b durable.RowValue) int { return cmp.Compare(a.Row, b.Row) })
	for row := range u.deleted {
		cd.Dead = append(cd.Dead, row)
	}
	slices.Sort(cd.Dead)
	return cd
}

// restoreOverlay reinstates one attribute's logical overlay (tails and
// tombstones), taking ownership of cd's tail array. A restored cracker already contains every live value;
// without one, replay queues the synthetic pending operations that
// reproduce the normal write path against a first-touch cracker: the
// base array still holds the last value of every dead base row, so
// AddDeleteRow removes exactly that occurrence on merge, and tail
// inserts (with their deletions, for dead tails) replay in row order.
func (e *Executor) restoreOverlay(cd durable.ColumnData, replay bool) {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	u := e.updatesLocked(cd.Name)
	u.tail = cd.Tails
	u.next += uint32(len(cd.Tails))
	u.deleted = make(map[uint32]struct{}, len(cd.Dead))
	for _, row := range cd.Dead {
		u.deleted[row] = struct{}{}
		if replay && int(row) < len(cd.Base) {
			u.pend.AddDeleteRow(cd.Base[row], row)
		}
	}
	if !replay {
		return
	}
	for i, v := range cd.Tails {
		row := uint32(len(cd.Base) + i)
		u.pend.AddInsert(v, row)
		if _, dead := u.deleted[row]; dead {
			u.pend.AddDeleteRow(v, row)
		}
	}
}

package engine

import (
	"cmp"
	"maps"
	"slices"

	"holistic/internal/column"
	"holistic/internal/durable"
	"holistic/internal/updates"
)

// Updatable reports whether the mode has an update path: the cracking
// modes do; the sorted and scan modes' index is the data.
func (e *Executor) Updatable() bool { return e.kind == kindCracker }

// mutate is the shared front half of Insert, Delete and Update: it
// resolves the row the operation targets — the next appended position for
// an insertion (find nil), otherwise the lowest row id currently holding
// *find — and applies fn to the attribute's overlay and pending queue,
// dropping the cached view.
//
// The victim comes out of the index, the way doradb resolves Key → RowID:
// the pending operations on exactly *find are merged into the attribute's
// cracker column (what a read of that value would do, counted in
// MergedUpdates like one), after which the tuples the column holds for
// *find are the rows that logically hold it, all in the one piece *find
// falls into; the lowest of their row ids is read there under the piece's
// read latch. Nothing is cracked. A write to an attribute no query has
// touched builds its cracker first, as a potential index; a write whose
// cracker was evicted before it took the write lock resolves again
// against the rebuilt one.
//
// Writers of one attribute are serialized by its write lock from resolve
// to apply; writers of different attributes never wait for each other.
// A walk over a built path and the daemon never take the lock; a first
// touch takes it to set its latch and to publish, View only to copy the
// overlay after a write.
func (e *Executor) mutate(attr, op string, find *int64, fn func(a *attribute, row uint32)) error {
	if !e.Updatable() {
		return ErrNoUpdatePath
	}
	a, err := e.attr(attr)
	if err != nil {
		return err
	}
	for {
		var cp *crackerPath
		if find != nil {
			cp = e.path(a, 0, 0, true).(*crackerPath)
		}
		if done, err := e.apply(a, cp, op, find, fn); done {
			return err
		}
	}
}

// apply is the half of mutate under the write lock. done is false when
// cp, the cracker the victim is to be resolved in, is no longer a's path.
func (e *Executor) apply(a *attribute, cp *crackerPath, op string, find *int64, fn func(a *attribute, row uint32)) (done bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row := uint32(a.extent())
	if find != nil {
		if a.current() != accessPath(cp) {
			return false, nil
		}
		e.ob.Merged(cp.pend.MergeValue(cp.col, *find))
		var ok bool
		if row, ok = cp.col.LowestRow(*find); !ok {
			return true, errf("engine: %s %s = %d: no such value", op, a.name, *find)
		}
	}
	a.writes.Add(1)
	fn(a, row)
	a.view.Store(nil)
	a.size.Store(int64(a.base.Len() + len(a.tail)))
	return true, nil
}

// Insert appends v to attr as a pending insertion, merged lazily by
// queries (and, under holistic indexing, by workers).
func (e *Executor) Insert(attr string, v int64) error {
	return e.mutate(attr, "insert", nil, func(a *attribute, row uint32) {
		a.tail = append(a.tail, v)
		a.pend.AddInsert(v, row)
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
	return e.mutate(attr, "delete", &v, func(a *attribute, row uint32) {
		if a.deleted == nil {
			a.deleted = make(map[uint32]struct{})
		}
		a.deleted[row] = struct{}{}
		a.pend.AddDeleteRow(v, row)
	})
}

// Update changes the row currently holding oldV (the lowest such row id)
// to newV: a deletion followed by an insertion at the same row id, so
// the tuple keeps its identity (the paper's definition of an update,
// made row-stable). The merge is row-targeted, as for Delete.
func (e *Executor) Update(attr string, oldV, newV int64) error {
	return e.mutate(attr, "update", &oldV, func(a *attribute, row uint32) {
		if a.updated == nil {
			a.updated = make(map[uint32]int64)
		}
		a.updated[row] = newV
		a.pend.AddUpdate(oldV, newV, row)
	})
}

// View provides update-aware positional access to attr: a snapshot of
// its current logical state — base values, appended rows, deletions and
// updates — regardless of how much of the pending queue has been merged
// into the index. For an attribute no update has touched that is the
// base column itself. Only the first View after a write takes the
// attribute's lock, to copy the overlay.
//
//holistic:noalloc
func (e *Executor) View(attr string) (column.View, error) {
	a, err := e.attr(attr)
	if err != nil {
		return column.View{}, err
	}
	if w := a.view.Load(); w != nil {
		return *w, nil
	}
	return a.snapshot(), nil
}

// Unchanged reports whether attr has taken no write since w, a View of
// it, was taken. A select through attr's path in between then merged only
// operations w reflects, so the select's rows and w's values describe one
// state: a write counts itself before its pending operation can be merged.
//
//holistic:noalloc
func (e *Executor) Unchanged(attr string, w column.View) bool {
	a := e.attrs[attr]
	return a != nil && a.writes.Load() == w.Writes
}

// snapshot copies the overlay into an immutable view and publishes it;
// the tail shares storage with the append-only record.
//
//holistic:alloc-ok one overlay copy per update batch, reused by every probe until the next mutation
func (a *attribute) snapshot() column.View {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := a.view.Load()
	if w == nil {
		w = &column.View{Base: a.base.Values(), Tail: a.tail[:len(a.tail):len(a.tail)], Writes: a.writes.Load()}
		if len(a.deleted) > 0 {
			w.Deleted = maps.Clone(a.deleted)
		}
		if len(a.updated) > 0 {
			w.Updated = maps.Clone(a.updated)
		}
		a.view.Store(w)
	}
	return *w
}

// export names the attribute's durable content without copying it: the
// table's immutable base array, the overlay's append-only tail, and — the
// cut taken under the write lock — the updated rows as a sorted patch
// list and the sorted tombstones. The segment writer stores a patched row
// with its newest value and a deleted row with the value it last held, so
// recovery can rebuild a first-touch cracker from the base array and
// replay the deletions exactly as the normal write path would have.
func (a *attribute) export() durable.ColumnData {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.data()
}

// data is export under the write lock.
func (a *attribute) data() durable.ColumnData {
	cd := durable.ColumnData{Name: a.name, Base: a.base.Values(), Tails: a.tail[:len(a.tail):len(a.tail)]}
	for row, v := range a.updated {
		cd.Patch = append(cd.Patch, durable.RowValue{Row: row, Val: v})
	}
	slices.SortFunc(cd.Patch, func(x, y durable.RowValue) int { return cmp.Compare(x.Row, y.Row) })
	for row := range a.deleted {
		cd.Dead = append(cd.Dead, row)
	}
	slices.Sort(cd.Dead)
	return cd
}

// restoreOverlay reinstates the attribute's overlay from cd — appended
// rows, updated rows and tombstones — taking ownership of cd's tail
// array. A restored cracker already contains every live value; without
// one, replay installs a fresh pending queue of the synthetic operations
// that bring a first-touch cracker built from cd.Base to the same logical
// state: the rebuilt column holds (cd.Base[row], row) for every base row,
// so a dead base row is deleted as exactly that tuple, a patched live one
// updated from it, and every live appended row inserted with its current
// value. Data-only recovery replays a recovered overlay this way (its
// segment already folded the patches into the arrays), and an eviction
// the attribute's own (replayOverlay). Caller holds a.mu.
func (a *attribute) restoreOverlay(cd durable.ColumnData, replay bool) {
	a.tail = cd.Tails
	a.deleted, a.updated = nil, nil
	for _, row := range cd.Dead {
		if a.deleted == nil {
			a.deleted = make(map[uint32]struct{}, len(cd.Dead))
		}
		a.deleted[row] = struct{}{}
	}
	for _, p := range cd.Patch {
		if a.updated == nil {
			a.updated = make(map[uint32]int64, len(cd.Patch))
		}
		a.updated[p.Row] = p.Val
	}
	a.view.Store(nil)
	a.size.Store(int64(len(cd.Base) + len(cd.Tails)))
	if !replay {
		return
	}
	pend := updates.NewPending()
	for _, row := range cd.Dead {
		if int(row) < len(cd.Base) {
			pend.AddDeleteRow(cd.Base[row], row)
		}
	}
	for _, p := range cd.Patch {
		if _, dead := a.deleted[p.Row]; !dead && int(p.Row) < len(cd.Base) {
			pend.AddUpdate(cd.Base[p.Row], p.Val, p.Row)
		}
	}
	for i, v := range cd.Tails {
		row := uint32(len(cd.Base) + i)
		if _, dead := a.deleted[row]; dead {
			continue
		}
		if nv, ok := a.updated[row]; ok {
			v = nv
		}
		pend.AddInsert(v, row)
	}
	a.pend = pend
}

// replayOverlay gives the attribute a fresh pending queue replayed from
// its own overlay, for a cracker column rebuilt from the base column.
// Caller holds a.mu.
func (a *attribute) replayOverlay() { a.restoreOverlay(a.data(), true) }

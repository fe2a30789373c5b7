package engine

import (
	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
)

// This file bridges the executor and the durable layer: naming, for a
// snapshot, the logical column content plus the physical state of every
// built index, and reinstalling both on recovery. Which index a state
// blob describes travels in durable.IndexState.Kind. Nothing is copied for
// a snapshot: column data shares the table's immutable base arrays and the
// overlay's append-only tail, index sources hand over live index arrays.
// Exports run under the store's write lock (no concurrent
// Insert/Delete/Update), so the overlay and the indexes are one cut of the
// logical state; concurrent queries may keep cracking until a column's own
// section is written, which never changes content.

// ExportTableData names the base columns of t as durable column data: the
// logical content of a table no executor has been built over yet.
func ExportTableData(t *Table) []durable.ColumnData {
	var cols []durable.ColumnData
	for _, name := range t.ColumnNames() {
		cols = append(cols, durable.ColumnData{Name: name, Base: t.Column(name).Values()})
	}
	return cols
}

// ExportDurable names every attribute's logical content and a source for
// the state of every index built so far (cracker pieces with their
// convergence statistics, sorted runs; scans and CCGI chunks are
// recomputed). A cracker's source latches the column for as long as the
// snapshot writer reads its arrays; a sorted run never changes. Online
// indexing's epoch counter is deliberately not persisted: a restarted
// store restarts its monitoring epoch.
func (e *Executor) ExportDurable() ([]durable.ColumnData, []durable.IndexSource) {
	var cols []durable.ColumnData
	var indexes []durable.IndexSource
	for _, attr := range e.table.order {
		a := e.attrs[attr]
		switch p := a.current().(type) {
		case *crackerPath:
			// Complete the physical state first: with every pending op
			// merged, the persisted arrays hold exactly the live logical
			// values and an empty pending queue on restore matches. No
			// write can queue another before the section is written.
			e.ob.Merged(p.pend.MergeAll(p.col))
			is := durable.IndexState{Attr: attr, Kind: durable.IndexCracker}
			if entry := p.entry; entry != nil {
				is.Accesses, is.Hits = entry.Accesses(), entry.Hits()
				is.StatsState = uint8(entry.State()) + 1
			}
			indexes = append(indexes, func(emit func(durable.IndexState) error) error {
				return p.col.ViewState(func(st cracking.State) error {
					is.Vals, is.Rows, is.Keys, is.Starts = st.Vals, st.Rows, st.Keys, st.Starts
					switch {
					case st.Packed:
						is.Layout, is.Ref = durable.LayoutPacked, st.Ref
					case st.Rows != nil:
						is.Layout = durable.LayoutRows
					}
					return emit(is)
				})
			})
		case *sortedPath:
			is := durable.IndexState{Attr: attr, Kind: durable.IndexSorted, Layout: durable.LayoutRows,
				Vals: p.col.Values(), Rows: p.col.RowIDs()}
			indexes = append(indexes, func(emit func(durable.IndexState) error) error { return emit(is) })
		}
		cols = append(cols, a.export())
	}
	return cols, indexes
}

// RestoreDurable reinstates recovered state on a freshly built executor
// whose table base came from the snapshot: every index state of the
// mode's own kind that validates is installed as if queries had built it
// (daemon admission and convergence statistics included; a sorted run
// also marks online indexing's epoch sort as paid), and under the
// cracking modes every attribute gets its update overlay back. It reports
// how many indexes were restored and how many were dropped for failing
// validation — those attributes rebuild from the recovered data exactly
// as a first query would.
func (e *Executor) RestoreDurable(cols []durable.ColumnData, states []durable.IndexState) (restored, dropped int) {
	for _, st := range states {
		a := e.attrs[st.Attr]
		if a == nil {
			continue // the table came from the same snapshot; nothing to restore into
		}
		var p accessPath
		var err error
		switch {
		case st.Kind == durable.IndexCracker && e.kind == kindCracker:
			// A section without row ids (written by a store that had them
			// turned off) fails here like any other that does not validate.
			var c *cracking.Column
			if c, err = cracking.Restore(st.Attr, cracking.State{
				Vals: st.Vals, Rows: rowsOf(st), Packed: st.Layout == durable.LayoutPacked, Ref: st.Ref,
				Keys: st.Keys, Starts: st.Starts,
			}, e.crack); err == nil {
				cp := &crackerPath{col: c, pend: a.pend, entry: e.admit(c, a.pend, st.Attr, false)}
				if cp.entry != nil && st.StatsState > 0 {
					cp.entry.RestoreCounts(st.Accesses, st.Hits, stats.State(st.StatsState-1))
				}
				p = cp
			}
		case st.Kind == durable.IndexSorted && e.kind == kindSorted:
			// A section without row ids (written before sorted copies
			// always carried them) is dropped: the first touch sorts the
			// column again, with them, rather than the first select that
			// needs rows.
			if st.Layout != durable.LayoutRows {
				dropped++
				continue
			}
			var sc *sortidx.SortedColumn
			if sc, err = sortidx.Restore(st.Attr, st.Vals, rowsOf(st)); err == nil {
				p = &sortedPath{col: sc}
			}
		default:
			continue // another mode's index: recomputed, not restored
		}
		if err != nil {
			dropped++
			continue
		}
		e.publish(a, p)
		e.scanning.Store(false)
		restored++
	}
	if e.Updatable() {
		for _, cd := range cols {
			if a := e.attrs[cd.Name]; a != nil {
				a.mu.Lock()
				a.restoreOverlay(cd, a.current() == nil)
				a.mu.Unlock()
			}
		}
	}
	return restored, dropped
}

// rowsOf returns the row id array of a decoded index state, non-nil —
// which is how the indexes tell carrying no row ids from carrying none yet
// — whenever its layout has one, even over an empty column.
func rowsOf(st durable.IndexState) []uint32 {
	if st.Layout == durable.LayoutRows && st.Rows == nil {
		return []uint32{}
	}
	return st.Rows
}

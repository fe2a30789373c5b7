package engine

import (
	"slices"

	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
)

// This file bridges the executor and the durable layer: exporting the
// logical column content plus the physical state of every built index
// for a snapshot, and reinstalling both on recovery. Which index a state
// blob describes travels in durable.IndexState.Kind. Exports run under
// the store's write lock (no concurrent Insert/Delete/Update), so the
// overlay and the index export observe one cut of the logical state;
// concurrent queries may keep cracking, which never changes content.

// ExportTableData captures the base columns of t as durable column data:
// the logical content of a table no executor has been built over yet.
func ExportTableData(t *Table) []durable.ColumnData {
	var cols []durable.ColumnData
	for _, name := range t.ColumnNames() {
		cols = append(cols, durable.ColumnData{Name: name, Base: slices.Clone(t.Column(name).Values())})
	}
	return cols
}

// ExportDurable captures every attribute's logical content and the state
// of every index built so far (cracker pieces with their convergence
// statistics, sorted runs; scans and CCGI chunks are recomputed), the
// update overlay folded into the content. Online indexing's epoch
// counter is deliberately not persisted: a restarted store restarts its
// monitoring epoch.
func (e *Executor) ExportDurable() ([]durable.ColumnData, []durable.IndexState) {
	var cols []durable.ColumnData
	var states []durable.IndexState
	for _, attr := range e.table.ColumnNames() {
		switch p := e.lookup(attr).(type) {
		case *crackerPath:
			// Complete the physical state first: with every pending op
			// merged, the exported arrays hold exactly the live logical
			// values and an empty pending queue on restore matches.
			e.ob.Merged(p.pend.MergeAll(p.col))
			st := p.col.ExportState()
			is := durable.IndexState{
				Attr: attr, Kind: durable.IndexCracker,
				Vals: st.Vals, Rows: st.Rows, HasRows: st.Rows != nil,
				Keys: st.Keys, Starts: st.Starts,
			}
			if e.daemon != nil {
				if entry := e.daemon.Registry().Get(attr); entry != nil {
					is.Accesses, is.Hits = entry.Accesses(), entry.Hits()
					is.StatsState = uint8(entry.State()) + 1
				}
			}
			states = append(states, is)
		case *sortedPath:
			states = append(states, durable.IndexState{
				Attr: attr, Kind: durable.IndexSorted,
				Vals: slices.Clone(p.col.Values()),
				Rows: slices.Clone(p.col.RowIDs()), HasRows: p.col.HasRows(),
			})
		}
		cols = append(cols, e.exportAttrData(attr))
	}
	return cols, states
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
		var p accessPath
		var err error
		switch {
		case st.Kind == durable.IndexCracker && e.kind == kindCracker:
			cfg := e.crack
			cfg.WithRows = st.HasRows
			var c *cracking.Column
			if c, err = cracking.Restore(st.Attr, cracking.ExportedState{Vals: st.Vals, Rows: st.Rows, Keys: st.Keys, Starts: st.Starts}, cfg); err == nil {
				cp := &crackerPath{col: c, pend: e.Pending(st.Attr)}
				if entry := e.admit(st.Attr, cp, false); entry != nil && st.StatsState > 0 {
					entry.RestoreCounts(st.Accesses, st.Hits, stats.State(st.StatsState-1))
				}
				p = cp
			}
		case st.Kind == durable.IndexSorted && e.kind == kindSorted:
			rows := st.Rows
			if !st.HasRows {
				rows = nil
			}
			var sc *sortidx.SortedColumn
			if sc, err = sortidx.Restore(st.Attr, st.Vals, rows); err == nil {
				p = &sortedPath{col: sc}
			}
		default:
			continue // another mode's index: recomputed, not restored
		}
		if err != nil {
			dropped++
			continue
		}
		e.mu.Lock()
		e.paths[st.Attr] = p
		e.scanning = false
		e.mu.Unlock()
		restored++
	}
	if e.Updatable() {
		for _, cd := range cols {
			e.restoreOverlay(cd, e.lookup(cd.Name) == nil)
		}
	}
	return restored, dropped
}

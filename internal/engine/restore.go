package engine

import (
	"sort"

	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
)

// This file is the bridge between the executors and the durable layer:
// exporting the logical column content plus the physical adaptive state
// for a snapshot, and reinstalling both on recovery. Exports run under
// the store's write lock (no concurrent Insert/Delete/Update), so the
// overlay read under pendMu and the index export observe one cut of the
// logical state; concurrent queries may keep cracking, which never
// changes logical content.

// ExportTableData captures the base columns of t as durable column
// data — the export path for executors without an update overlay.
func ExportTableData(t *Table) []durable.ColumnData {
	var cols []durable.ColumnData
	for _, name := range t.ColumnNames() {
		cols = append(cols, durable.ColumnData{
			Name: name,
			Base: append([]int64(nil), t.Column(name).Values()...),
		})
	}
	return cols
}

// ExportDurable captures every attribute's folded logical content and,
// where a cracker exists, its physical state. Folding bakes the update
// overlay into the arrays: updated rows carry their newest value and
// deleted rows keep the value they last held, so recovery can rebuild a
// first-touch cracker from the base array and replay the deletions
// exactly as the normal write path would have.
func (e *AdaptiveExecutor) ExportDurable() ([]durable.ColumnData, []durable.IndexState) {
	var cols []durable.ColumnData
	var states []durable.IndexState
	for _, attr := range e.table.ColumnNames() {
		// Complete the cracker's physical state first: with every
		// pending op merged, the exported arrays hold exactly the live
		// logical values and an empty pending queue on restore matches.
		c := e.CrackerIfExists(attr)
		if c != nil {
			if n := e.Pending(attr).MergeAll(c); n > 0 && e.met != nil {
				e.met.MergedUpdates.Add(int64(n))
			}
		}
		cols = append(cols, e.exportAttrData(attr))
		if c != nil {
			st := c.ExportState()
			is := durable.IndexState{
				Attr:    attr,
				Kind:    durable.IndexCracker,
				Vals:    st.Vals,
				Rows:    st.Rows,
				HasRows: st.Rows != nil,
				Keys:    st.Keys,
				Starts:  st.Starts,
			}
			if e.Registry != nil {
				if entry := e.Registry.Get(attr); entry != nil {
					is.Accesses = entry.Accesses()
					is.Hits = entry.Hits()
					is.StatsState = uint8(entry.State()) + 1
				}
			}
			states = append(states, is)
		}
	}
	return cols, states
}

// exportAttrData folds one attribute's overlay into durable arrays.
func (e *AdaptiveExecutor) exportAttrData(attr string) durable.ColumnData {
	base := e.table.Column(attr).Values()
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	cd := durable.ColumnData{
		Name:  attr,
		Base:  append([]int64(nil), base...),
		Tails: append([]int64(nil), e.tails[attr]...),
	}
	for row, v := range e.updated[attr] {
		if int(row) < len(cd.Base) {
			cd.Base[row] = v
		} else if i := int(row) - len(cd.Base); i < len(cd.Tails) {
			cd.Tails[i] = v
		}
	}
	for row := range e.deleted[attr] {
		cd.Dead = append(cd.Dead, row)
	}
	sort.Slice(cd.Dead, func(i, j int) bool { return cd.Dead[i] < cd.Dead[j] })
	return cd
}

// RestoreAttrData reinstates one attribute's logical overlay on a
// freshly built executor whose table base came from the snapshot, and
// queues the synthetic pending operations that reproduce the normal
// write path against a first-touch cracker: the base array still holds
// the last value of every dead base row, so AddDeleteRow removes
// exactly that occurrence on merge, and tail inserts (with their
// deletions, for dead tails) replay in row order.
func (e *AdaptiveExecutor) RestoreAttrData(cd durable.ColumnData) {
	baseRows := uint32(len(cd.Base))
	p := e.Pending(cd.Name)
	e.pendMu.Lock()
	if len(cd.Tails) > 0 {
		e.tails[cd.Name] = append([]int64(nil), cd.Tails...)
		e.nextRow[cd.Name] = baseRows + uint32(len(cd.Tails))
	}
	var dead map[uint32]struct{}
	if len(cd.Dead) > 0 {
		dead = make(map[uint32]struct{}, len(cd.Dead))
		for _, row := range cd.Dead {
			dead[row] = struct{}{}
		}
		e.deleted[cd.Name] = dead
	}
	delete(e.viewCache, cd.Name)
	e.pendMu.Unlock()

	for _, row := range cd.Dead {
		if row >= baseRows {
			break // tail deletions interleave with the inserts below
		}
		p.AddDeleteRow(cd.Base[row], row)
	}
	for i, v := range cd.Tails {
		row := baseRows + uint32(i)
		p.AddInsert(v, row)
		if _, d := dead[row]; d {
			p.AddDeleteRow(v, row)
		}
	}
}

// InstallRestoredCracker installs a rebuilt cracker column for attr,
// registering it exactly as a first query would (through the Admit hook
// when holistic mode routes admission via the daemon), and returns the
// stats entry for count restoration. The caller must have reinstated
// the attribute's overlay WITHOUT synthetic pending operations: the
// restored cracker already contains every live value.
func (e *AdaptiveExecutor) InstallRestoredCracker(attr string, c *cracking.Column) *stats.Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.crackers[attr]; ok {
		return nil
	}
	e.crackers[attr] = c
	if e.Admit != nil {
		return e.Admit(attr, c, false)
	}
	if e.Registry != nil {
		return e.Registry.Add(attr, c, false)
	}
	return nil
}

// RestoreOverlay reinstates just the logical overlay (tails and
// tombstones) of one attribute — the companion of
// InstallRestoredCracker, which needs no synthetic pending queue.
func (e *AdaptiveExecutor) RestoreOverlay(cd durable.ColumnData) {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	if len(cd.Tails) > 0 {
		e.tails[cd.Name] = append([]int64(nil), cd.Tails...)
		e.nextRow[cd.Name] = uint32(len(cd.Base) + len(cd.Tails))
	}
	if len(cd.Dead) > 0 {
		dead := make(map[uint32]struct{}, len(cd.Dead))
		for _, row := range cd.Dead {
			dead[row] = struct{}{}
		}
		e.deleted[cd.Name] = dead
	}
	delete(e.viewCache, cd.Name)
}

// ExportSorted captures the sorted runs built so far.
func (e *OfflineExecutor) ExportSorted() []durable.IndexState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return exportSortedMap(e.sorted)
}

// SeedSorted reinstates a restored sorted run, so the executor serves
// it instead of re-sorting on first touch.
func (e *OfflineExecutor) SeedSorted(sc *sortidx.SortedColumn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sorted[sc.Name()] = sc
}

// ExportSorted captures the sorted runs built so far. The epoch query
// counter is deliberately not persisted: a restarted store restarts its
// monitoring epoch, but seeded runs keep serving index probes.
func (e *OnlineExecutor) ExportSorted() []durable.IndexState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return exportSortedMap(e.sorted)
}

// SeedSorted reinstates a restored sorted run. A non-empty sorted map
// also marks the epoch sort as already paid, so the post-epoch bulk
// build is skipped.
func (e *OnlineExecutor) SeedSorted(sc *sortidx.SortedColumn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sorted[sc.Name()] = sc
}

func exportSortedMap(sorted map[string]*sortidx.SortedColumn) []durable.IndexState {
	var states []durable.IndexState
	names := make([]string, 0, len(sorted))
	for name := range sorted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := sorted[name]
		st := durable.IndexState{
			Attr:    name,
			Kind:    durable.IndexSorted,
			Vals:    append([]int64(nil), sc.Values()...),
			HasRows: sc.HasRows(),
		}
		if sc.HasRows() {
			st.Rows = append([]uint32(nil), sc.RowIDs()...)
		}
		states = append(states, st)
	}
	return states
}

package sortidx

import "fmt"

// RowIDs exposes the full rowid array in sorted-value order. Callers
// must treat it as read-only; the durable layer copies it into a
// snapshot.
func (s *SortedColumn) RowIDs() []uint32 { return s.rows }

// Restore rebuilds a sorted column from persisted arrays, taking
// ownership of the slices. Sortedness and a row id per value are
// validated so a corrupt or stale snapshot is rejected and the caller can
// fall back to re-sorting the base data.
func Restore(name string, vals []int64, rows []uint32) (*SortedColumn, error) {
	if len(rows) != len(vals) {
		return nil, fmt.Errorf("sortidx: restore %s: rowid array mismatch", name)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return nil, fmt.Errorf("sortidx: restore %s: values not sorted at %d", name, i)
		}
	}
	return &SortedColumn{name: name, vals: vals, rows: rows}, nil
}

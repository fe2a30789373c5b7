// Package engine is the minimal bulk-processing column-store the
// reproduction runs on (DESIGN.md §3 records the substitution for
// MonetDB): tables of dense integer columns and one Executor that answers
// range selections over them.
//
// The indexing approaches compared in Section 5 differ only in when a
// column's order gets built, so a mode is a policy over access paths
// (path.go), not an executor of its own:
//
//	no indexing        — the base column, filtered by parallel scans
//	offline indexing   — a sorted copy, built by PrepareAll or at first touch
//	online indexing    — scans for an epoch of queries, then sorts every column
//	adaptive indexing  — a cracker column built at first touch (PVDC, PVSDC)
//	mP-CCGI            — chunked coarse-granular cracker columns
//	holistic indexing  — cracker columns plus the holistic indexing daemon
package engine

import (
	"fmt"

	"holistic/internal/column"
)

// Table is a named set of equally long columns (one relation, vertically
// fragmented as in Section 3.1).
type Table struct {
	name   string
	order  []string
	byName map[string]*column.Column
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, byName: make(map[string]*column.Column)}
}

// AddColumn attaches a column; all columns of a table must have the same
// length (checked so position alignment — the backbone of late tuple
// reconstruction — cannot silently break).
func (t *Table) AddColumn(c *column.Column) error {
	if _, dup := t.byName[c.Name()]; dup {
		return fmt.Errorf("engine: duplicate column %q in table %q", c.Name(), t.name)
	}
	if len(t.order) > 0 && c.Len() != t.byName[t.order[0]].Len() {
		return fmt.Errorf("engine: column %q has %d rows, table %q has %d",
			c.Name(), c.Len(), t.name, t.byName[t.order[0]].Len())
	}
	t.order = append(t.order, c.Name())
	t.byName[c.Name()] = c
	return nil
}

// MustAddColumn is AddColumn for static table construction.
func (t *Table) MustAddColumn(c *column.Column) {
	if err := t.AddColumn(c); err != nil {
		panic(err)
	}
}

// Column returns a column by name (nil if absent).
func (t *Table) Column(name string) *column.Column { return t.byName[name] }

// ColumnNames returns the attribute names in insertion order.
func (t *Table) ColumnNames() []string { return append([]string(nil), t.order...) }

// Rows returns the number of tuples (0 for an empty table).
func (t *Table) Rows() int {
	if len(t.order) == 0 {
		return 0
	}
	return t.byName[t.order[0]].Len()
}

// Package model is the reference every answer of the store is checked
// against. The paper's seven indexing approaches are seven physical
// designs of one logical relation, so each of them must answer what a
// plain scan of that relation answers; this package is that scan, kept
// as rows and queried with plain loops.
//
// A Table holds rows keyed by row id. A row holds at most one live value
// per attribute; a value is absent when it was never set or has been
// deleted (a tombstone). The write semantics are the Store's:
//
//   - Insert gives an attribute a value at the next row id of that
//     attribute, continuing the base position sequence per attribute;
//   - Delete and Update hit the lowest live row holding the value;
//   - a row with no value in a referenced attribute — a predicate's, a
//     grouping key's, an aggregated or projected one — never qualifies.
//
// Answers come back in ascending row-id order, groups in ascending key
// order, join pairs ascending by (left, right). The package imports only
// the standard library, so it shares no code with what it checks.
package model

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Pred is the range conjunct Lo <= Attr < Hi. Repeating an attribute
// intersects the ranges; Lo >= Hi selects nothing.
type Pred struct {
	Attr   string
	Lo, Hi int64
}

// Kind names an aggregate function.
type Kind int

// The aggregate functions of a grouped query.
const (
	Count Kind = iota
	Sum
	Min
	Max
)

// Agg is one aggregate of a grouped query; Count ignores Attr.
type Agg struct {
	Kind Kind
	Attr string
}

// Table is one relation.
type Table struct {
	names []string
	ids   []uint32  // row ids, ascending
	vals  [][]int64 // vals[a][i] is attribute a's value at row ids[i]
	live  [][]bool  // live[a][i]: that value exists
	next  []uint32  // next[a] is the row id attribute a's next Insert takes
}

// New returns a table whose attribute names[a] holds cols[a][r] at row r;
// attributes beyond cols start empty.
func New(names []string, cols ...[]int64) *Table {
	t := &Table{
		names: slices.Clone(names),
		vals:  make([][]int64, len(names)),
		live:  make([][]bool, len(names)),
		next:  make([]uint32, len(names)),
	}
	for a, col := range cols {
		for r, v := range col {
			t.Put(names[a], uint32(r), v)
		}
	}
	return t
}

// Names lists the attributes in the order New was given them.
func (t *Table) Names() []string { return t.names }

// attr is the index of name, or -1.
func (t *Table) attr(name string) int { return slices.Index(t.names, name) }

// Check reports the first attribute of names the table does not have —
// the error the Store gives a query or write that names it.
func (t *Table) Check(names ...string) error {
	for _, n := range names {
		if t.attr(n) < 0 {
			return fmt.Errorf("model: unknown attribute %q", n)
		}
	}
	return nil
}

// slot returns the index of row in ids, creating the row if needed.
func (t *Table) slot(row uint32) int {
	i, found := slices.BinarySearch(t.ids, row)
	if !found {
		t.ids = slices.Insert(t.ids, i, row)
		for a := range t.names {
			t.vals[a] = slices.Insert(t.vals[a], i, 0)
			t.live[a] = slices.Insert(t.live[a], i, false)
		}
	}
	return i
}

// Put sets attribute name of row to v, whatever it held. It is how a
// test lays out data whose row ids it chooses itself; it panics on an
// unknown attribute.
func (t *Table) Put(name string, row uint32, v int64) {
	a := t.attr(name)
	if a < 0 {
		panic(fmt.Sprintf("model: Put on unknown attribute %q", name))
	}
	i := t.slot(row)
	t.vals[a][i], t.live[a][i] = v, true
	t.next[a] = max(t.next[a], row+1)
}

// Get returns attribute name's value at row; ok is false when it has none.
func (t *Table) Get(name string, row uint32) (v int64, ok bool) {
	a := t.attr(name)
	i, found := slices.BinarySearch(t.ids, row)
	if a < 0 || !found || !t.live[a][i] {
		return 0, false
	}
	return t.vals[a][i], true
}

// Insert appends v to attribute name at its next row id.
func (t *Table) Insert(name string, v int64) error {
	if err := t.Check(name); err != nil {
		return err
	}
	t.Put(name, t.next[t.attr(name)], v)
	return nil
}

// Lowest returns the lowest row holding a live v in attribute name.
func (t *Table) Lowest(name string, v int64) (row uint32, ok bool) {
	if a := t.attr(name); a >= 0 {
		for i, x := range t.vals[a] {
			if t.live[a][i] && x == v {
				return t.ids[i], true
			}
		}
	}
	return 0, false
}

// victim resolves the row a Delete or Update of v in name targets.
func (t *Table) victim(op, name string, v int64) (int, error) {
	if err := t.Check(name); err != nil {
		return 0, err
	}
	row, ok := t.Lowest(name, v)
	if !ok {
		return 0, fmt.Errorf("model: %s %s = %d: no such value", op, name, v)
	}
	i, _ := slices.BinarySearch(t.ids, row)
	return i, nil
}

// Delete removes name's value from the lowest live row holding v.
func (t *Table) Delete(name string, v int64) error {
	i, err := t.victim("delete", name, v)
	if err == nil {
		t.live[t.attr(name)][i] = false
	}
	return err
}

// Update changes name's value at the lowest live row holding oldV to
// newV; the row keeps its id.
func (t *Table) Update(name string, oldV, newV int64) error {
	i, err := t.victim("update", name, oldV)
	if err == nil {
		t.vals[t.attr(name)][i] = newV
	}
	return err
}

// DeleteRow removes name's value at row, reporting whether it had one.
func (t *Table) DeleteRow(name string, row uint32) bool {
	a := t.attr(name)
	i, found := slices.BinarySearch(t.ids, row)
	if a < 0 || !found || !t.live[a][i] {
		return false
	}
	t.live[a][i] = false
	return true
}

// match returns the indices of the rows passing every predicate that
// hold a value in every attribute of need.
func (t *Table) match(preds []Pred, need []string) []int {
	pa, na := make([]int, len(preds)), make([]int, len(need))
	for j, p := range preds {
		pa[j] = t.attr(p.Attr)
	}
	for j, n := range need {
		na[j] = t.attr(n)
	}
	var out []int
rows:
	for i := range t.ids {
		for j, p := range preds {
			if a := pa[j]; a < 0 || !t.live[a][i] || t.vals[a][i] < p.Lo || t.vals[a][i] >= p.Hi {
				continue rows
			}
		}
		for _, a := range na {
			if a < 0 || !t.live[a][i] {
				continue rows
			}
		}
		out = append(out, i)
	}
	return out
}

// Rows returns, ascending, the rows passing every predicate that hold a
// value in every attribute of need. No predicates and no need select
// every row.
func (t *Table) Rows(preds []Pred, need ...string) []uint32 {
	var out []uint32
	for _, i := range t.match(preds, need) {
		out = append(out, t.ids[i])
	}
	return out
}

// Count counts the rows passing every predicate.
func (t *Table) Count(preds []Pred) int { return len(t.match(preds, nil)) }

// Values returns attrs of the qualifying rows holding all of them, one
// aligned slice per attribute, by ascending row id.
func (t *Table) Values(attrs []string, preds []Pred) [][]int64 {
	idx := t.match(preds, attrs)
	out := make([][]int64, len(attrs))
	for k, name := range attrs {
		out[k] = make([]int64, len(idx))
		if a := t.attr(name); a >= 0 {
			for j, i := range idx {
				out[k][j] = t.vals[a][i]
			}
		}
	}
	return out
}

// Sum adds attr over the qualifying rows that hold it.
func (t *Table) Sum(attr string, preds []Pred) (sum int64) {
	for _, v := range t.Values([]string{attr}, preds)[0] {
		sum += v
	}
	return sum
}

// MinMax returns the extrema of attr over the qualifying rows that hold
// it; ok is false when there are none.
func (t *Table) MinMax(attr string, preds []Pred) (mn, mx int64, ok bool) {
	vals := t.Values([]string{attr}, preds)[0]
	if len(vals) == 0 {
		return 0, 0, false
	}
	return slices.Min(vals), slices.Max(vals), true
}

// Group aggregates rows by the tuple of keys, skipping a row that lacks
// a key or an aggregated attribute. It returns one slice per key and per
// aggregate, aligned, groups ascending by key tuple.
func (t *Table) Group(keys []string, aggs []Agg, rows []uint32) (keyCols, aggCols [][]int64) {
	need := slices.Clone(keys)
	for _, g := range aggs {
		if g.Kind != Count {
			need = append(need, g.Attr)
		}
	}
	type group struct{ key, acc []int64 }
	var groups []*group
	byKey := map[string]*group{}
	var raw []byte
	rows = slices.Sorted(slices.Values(rows))
	for _, i := range t.match(nil, need) {
		if _, found := slices.BinarySearch(rows, t.ids[i]); !found {
			continue
		}
		key := make([]int64, len(keys))
		raw = raw[:0]
		for k, name := range keys {
			key[k] = t.vals[t.attr(name)][i]
			raw = binary.BigEndian.AppendUint64(raw, uint64(key[k]))
		}
		g := byKey[string(raw)]
		if g == nil {
			g = &group{key: key, acc: make([]int64, len(aggs))}
			for j, a := range aggs {
				if a.Kind == Min || a.Kind == Max {
					g.acc[j] = t.vals[t.attr(a.Attr)][i]
				}
			}
			byKey[string(raw)] = g
			groups = append(groups, g)
		}
		for j, a := range aggs {
			if a.Kind == Count {
				g.acc[j]++
				continue
			}
			v := t.vals[t.attr(a.Attr)][i]
			switch a.Kind {
			case Sum:
				g.acc[j] += v
			case Min:
				g.acc[j] = min(g.acc[j], v)
			case Max:
				g.acc[j] = max(g.acc[j], v)
			}
		}
	}
	slices.SortFunc(groups, func(x, y *group) int { return slices.Compare(x.key, y.key) })
	keyCols, aggCols = make([][]int64, len(keys)), make([][]int64, len(aggs))
	for _, g := range groups {
		for k := range keys {
			keyCols[k] = append(keyCols[k], g.key[k])
		}
		for j := range aggs {
			aggCols[j] = append(aggCols[j], g.acc[j])
		}
	}
	return keyCols, aggCols
}

// Join is the equi-join of l's rows lRows with r's rows rRows on
// l.lAttr = r.rAttr; a row without a key value matches nothing. It
// returns the matching row pairs ascending by (left, right) and the
// joined relation: row i is pair i, holding every attribute of l under
// "l."+name and of r under "r."+name, as present on that pair's rows.
func Join(l *Table, lAttr string, lRows []uint32, r *Table, rAttr string, rRows []uint32) ([][2]uint32, *Table) {
	byKey := map[int64][]uint32{}
	for _, rr := range rRows {
		if k, ok := r.Get(rAttr, rr); ok {
			byKey[k] = append(byKey[k], rr)
		}
	}
	var pairs [][2]uint32
	for _, lr := range lRows {
		if k, ok := l.Get(lAttr, lr); ok {
			for _, rr := range byKey[k] {
				pairs = append(pairs, [2]uint32{lr, rr})
			}
		}
	}
	slices.SortFunc(pairs, func(x, y [2]uint32) int { return slices.Compare(x[:], y[:]) })
	var names []string
	for _, n := range l.names {
		names = append(names, "l."+n)
	}
	for _, n := range r.names {
		names = append(names, "r."+n)
	}
	joined := New(names)
	for i, p := range pairs {
		for side, src := range []*Table{l, r} {
			for _, n := range src.names {
				if v, ok := src.Get(n, p[side]); ok {
					joined.Put(names[side*len(l.names)+src.attr(n)], uint32(i), v)
				}
			}
		}
	}
	return pairs, joined
}

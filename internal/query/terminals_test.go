package query

import (
	"fmt"
	"slices"
	"testing"
)

// logicalTable is the per-row model the terminals are held against: what
// every row id holds in every attribute once the overlay is applied,
// written without column.View.
type logicalTable struct {
	vals map[string][]int64
	ok   map[string][]bool
}

func newLogicalTable(cols [][]int64) *logicalTable {
	l := &logicalTable{vals: map[string][]int64{}, ok: map[string][]bool{}}
	for attr, i := range names {
		l.vals[attr] = slices.Clone(cols[i])
		l.ok[attr] = slices.Repeat([]bool{true}, len(cols[i]))
	}
	return l
}

// insert, delete and update mirror the executor's write semantics: an
// insert appends a row to that attribute alone, a delete or update hits
// the lowest row id currently holding the value.
func (l *logicalTable) insert(attr string, v int64) {
	l.vals[attr], l.ok[attr] = append(l.vals[attr], v), append(l.ok[attr], true)
}

func (l *logicalTable) victim(attr string, v int64) int {
	for row, ok := range l.ok[attr] {
		if ok && l.vals[attr][row] == v {
			return row
		}
	}
	return -1 // the value is gone: an earlier write of the batch took its last row
}

func (l *logicalTable) delete(attr string, v int64) { l.ok[attr][l.victim(attr, v)] = false }

func (l *logicalTable) update(attr string, oldV, newV int64) {
	l.vals[attr][l.victim(attr, oldV)] = newV
}

// rows returns, ascending, the row ids that satisfy every predicate and
// hold a value in every attribute of present (SQL NULL semantics: a row
// missing a referenced value never qualifies).
func (l *logicalTable) rows(preds []Predicate, present ...string) []uint32 {
	universe := 0
	for _, ok := range l.ok {
		universe = max(universe, len(ok))
	}
	has := func(attr string, row int) bool { return row < len(l.ok[attr]) && l.ok[attr][row] }
	var out []uint32
rows:
	for row := 0; row < universe; row++ {
		for _, p := range preds {
			if !has(p.Attr, row) || l.vals[p.Attr][row] < p.Lo || l.vals[p.Attr][row] >= p.Hi {
				continue rows
			}
		}
		for _, attr := range present {
			if !has(attr, row) {
				continue rows
			}
		}
		out = append(out, uint32(row))
	}
	return out
}

// TestTerminalsMatchOracle is the one table over the one query body:
// Count, Sum, MinMax, Rows and Values against the per-row model, over
// all seven modes × conjunction shapes (one, two, three conjuncts, a
// repeated attribute, an empty and an inverted range; dense and sparse
// drives, which pick the bitmap and the position list) × the aggregated
// attribute inside and outside the predicates × every overlay shape the
// updatable modes can carry. Two passes: the first builds and cracks and merges
// pending updates, the second runs over the refined paths.
func TestTerminalsMatchOracle(t *testing.T) {
	const domain = 1 << 12
	overlays := []string{"none", "inserts", "deletes", "updates", "all"}
	shapes := []struct {
		name  string
		preds []Predicate
	}{
		{"one", []Predicate{{Attr: "a", Lo: 500, Hi: 3000}}},
		{"two-dense", []Predicate{{Attr: "a", Lo: 0, Hi: 3000}, {Attr: "b", Lo: 1000, Hi: domain}}},
		{"two-sparse", []Predicate{{Attr: "a", Lo: 0, Hi: 3000}, {Attr: "b", Lo: 1000, Hi: 1040}}},
		{"three-dense", []Predicate{{Attr: "a", Lo: 0, Hi: 3000}, {Attr: "b", Lo: 1000, Hi: domain}, {Attr: "c", Lo: 200, Hi: 3800}}},
		{"three-sparse", []Predicate{{Attr: "c", Lo: 200, Hi: 3800}, {Attr: "a", Lo: 700, Hi: 760}, {Attr: "b", Lo: 1000, Hi: domain}}},
		{"repeated", []Predicate{{Attr: "a", Lo: 100, Hi: 3000}, {Attr: "b", Lo: 0, Hi: 2500}, {Attr: "a", Lo: 900, Hi: 3900}}},
		{"repeated-only", []Predicate{{Attr: "a", Lo: 100, Hi: 3000}, {Attr: "a", Lo: 900, Hi: 3900}}},
		{"empty-range", []Predicate{{Attr: "a", Lo: 700, Hi: 700}, {Attr: "b", Lo: 0, Hi: domain}}},
		{"inverted-range", []Predicate{{Attr: "b", Lo: 0, Hi: domain}, {Attr: "a", Lo: 900, Hi: 100}}},
		{"disjoint-repeat", []Predicate{{Attr: "a", Lo: 0, Hi: 100}, {Attr: "a", Lo: 500, Hi: 600}}},
	}
	for _, overlay := range overlays {
		tab, cols := buildTable(4, 4000, domain, 61)
		for mode, exec := range allModeExecutors(t, tab) {
			if overlay != "none" && !exec.Updatable() {
				exec.Close()
				continue
			}
			t.Run(overlay+"/"+mode, func(t *testing.T) {
				defer exec.Close()
				l := newLogicalTable(cols)
				write := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				if overlay == "inserts" || overlay == "all" {
					for i := int64(0); i < 40; i++ {
						for _, attr := range []string{"a", "b", "c", "d"} {
							v := (i*97 + int64(len(attr))) % domain
							write(exec.Insert(attr, 600+v/2))
							l.insert(attr, 600+v/2)
						}
					}
					// Rows past the others' extent: present in a and b only.
					for _, v := range []int64{750, 1500, 2999} {
						for _, attr := range []string{"a", "b"} {
							write(exec.Insert(attr, v))
							l.insert(attr, v)
						}
					}
				}
				if overlay == "deletes" || overlay == "all" {
					for i := 0; i < 60; i++ {
						attr := []string{"a", "b", "d"}[i%3]
						v := cols[names[attr]][i*53] // a base value; duplicates resolve to the lowest row
						if l.victim(attr, v) >= 0 {
							write(exec.Delete(attr, v))
							l.delete(attr, v)
						}
					}
				}
				if overlay == "updates" || overlay == "all" {
					for i := 0; i < 60; i++ {
						attr := []string{"b", "c", "d", "a"}[i%4]
						oldV, newV := cols[names[attr]][2000+i*31], int64(i*67)%domain
						if l.victim(attr, oldV) >= 0 {
							write(exec.Update(attr, oldV, newV))
							l.update(attr, oldV, newV)
						}
					}
				}

				r := New(tab, exec, 2)
				for pass := 0; pass < 2; pass++ {
					for _, sh := range shapes {
						for _, agg := range []string{"a", "d"} { // inside / outside the predicates
							ctx := fmt.Sprintf("pass %d %s agg=%s", pass, sh.name, agg)
							checkTerminals(t, ctx, r, l, sh.preds, agg)
						}
					}
				}
				if d := exec.Daemon(); d != nil && d.WorkerPanics() != 0 {
					t.Errorf("%d daemon worker panics, last: %s", d.WorkerPanics(), d.LastPanic())
				}
			})
		}
	}
}

// checkTerminals runs the five terminals of one query and compares each
// with the model.
func checkTerminals(t *testing.T, ctx string, r *Runner, l *logicalTable, preds []Predicate, agg string) {
	t.Helper()
	want := l.rows(preds)
	if n, err := r.Count(preds); err != nil || n != len(want) {
		t.Fatalf("%s: Count = %d, %v; want %d", ctx, n, err, len(want))
	}
	if got, err := r.Rows(preds); err != nil || !slices.Equal(got, want) {
		t.Fatalf("%s: Rows = %d rows, %v; want %d", ctx, len(got), err, len(want))
	}

	wantAgg := l.rows(preds, agg)
	var sum, mn, mx int64
	for i, row := range wantAgg {
		v := l.vals[agg][row]
		if sum += v; i == 0 {
			mn, mx = v, v
		}
		mn, mx = min(mn, v), max(mx, v)
	}
	if got, err := r.Sum(agg, preds); err != nil || got != sum {
		t.Fatalf("%s: Sum = %d, %v; want %d", ctx, got, err, sum)
	}
	gmn, gmx, ok, err := r.MinMax(agg, preds)
	if err != nil || ok != (len(wantAgg) > 0) || (ok && (gmn != mn || gmx != mx)) {
		t.Fatalf("%s: MinMax = (%d, %d, %v), %v; want (%d, %d, %v)", ctx, gmn, gmx, ok, err, mn, mx, len(wantAgg) > 0)
	}

	attrs := []string{agg, "b"}
	wantVals := l.rows(preds, attrs...)
	cols, err := r.Values(attrs, preds)
	if err != nil || len(cols) != len(attrs) {
		t.Fatalf("%s: Values = %d columns, %v", ctx, len(cols), err)
	}
	for i, attr := range attrs {
		if cols[i] == nil || len(cols[i]) != len(wantVals) {
			t.Fatalf("%s: Values[%s] holds %d values (nil: %v), want %d", ctx, attr, len(cols[i]), cols[i] == nil, len(wantVals))
		}
		for j, row := range wantVals {
			if cols[i][j] != l.vals[attr][row] {
				t.Fatalf("%s: Values[%s][%d] = %d, want row %d's %d", ctx, attr, j, cols[i][j], row, l.vals[attr][row])
			}
		}
	}
}

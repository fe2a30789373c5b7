package query

import (
	"fmt"
	"slices"
	"testing"

	"holistic/internal/model"
)

// TestTerminalsMatchModel is the one table over the one query body:
// Count, Sum, MinMax, Rows and Values against the model, over
// all seven modes × conjunction shapes (one, two, three conjuncts, a
// repeated attribute, an empty and an inverted range; dense and sparse
// drives, which pick the bitmap and the position list) × the aggregated
// attribute inside and outside the predicates × every overlay shape the
// updatable modes can carry. Two passes: the first builds and cracks and merges
// pending updates, the second runs over the refined paths.
func TestTerminalsMatchModel(t *testing.T) {
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
		tab := buildTable(4, 4000, domain, 61)
		for mode, exec := range allModeExecutors(t, tab) {
			if overlay != "none" && !exec.Updatable() {
				exec.Close()
				continue
			}
			t.Run(overlay+"/"+mode, func(t *testing.T) {
				defer exec.Close()
				m := modelOf(tab)
				write := func(err, want error) {
					t.Helper()
					if err != nil || want != nil {
						t.Fatal(err, want)
					}
				}
				if overlay == "inserts" || overlay == "all" {
					for i := int64(0); i < 40; i++ {
						for _, attr := range []string{"a", "b", "c", "d"} {
							v := (i*97 + int64(len(attr))) % domain
							write(exec.Insert(attr, 600+v/2), m.Insert(attr, 600+v/2))
						}
					}
					// Rows past the others' extent: present in a and b only.
					for _, v := range []int64{750, 1500, 2999} {
						for _, attr := range []string{"a", "b"} {
							write(exec.Insert(attr, v), m.Insert(attr, v))
						}
					}
				}
				if overlay == "deletes" || overlay == "all" {
					for i := 0; i < 60; i++ {
						attr := []string{"a", "b", "d"}[i%3]
						v := tab.Column(attr).Values()[i*53] // a base value; duplicates resolve to the lowest row
						if _, held := m.Lowest(attr, v); held {
							write(exec.Delete(attr, v), m.Delete(attr, v))
						}
					}
				}
				if overlay == "updates" || overlay == "all" {
					for i := 0; i < 60; i++ {
						attr := []string{"b", "c", "d", "a"}[i%4]
						oldV, newV := tab.Column(attr).Values()[2000+i*31], int64(i*67)%domain
						if _, held := m.Lowest(attr, oldV); held {
							write(exec.Update(attr, oldV, newV), m.Update(attr, oldV, newV))
						}
					}
				}

				r := New(tab, exec, 2)
				for pass := 0; pass < 2; pass++ {
					for _, sh := range shapes {
						for _, agg := range []string{"a", "d"} { // inside / outside the predicates
							ctx := fmt.Sprintf("pass %d %s agg=%s", pass, sh.name, agg)
							checkTerminals(t, ctx, r, m, sh.preds, agg)
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
func checkTerminals(t *testing.T, ctx string, r *Runner, m *model.Table, preds []Predicate, agg string) {
	t.Helper()
	mpreds := mp(preds)
	want := m.Rows(mpreds)
	if n, err := r.Count(preds); err != nil || n != len(want) {
		t.Fatalf("%s: Count = %d, %v; want %d", ctx, n, err, len(want))
	}
	if got, err := r.Rows(preds); err != nil || !slices.Equal(got, want) {
		t.Fatalf("%s: Rows = %d rows, %v; want %d", ctx, len(got), err, len(want))
	}
	if got, err := r.Sum(agg, preds); err != nil || got != m.Sum(agg, mpreds) {
		t.Fatalf("%s: Sum = %d, %v; want %d", ctx, got, err, m.Sum(agg, mpreds))
	}
	mn, mx, ok := m.MinMax(agg, mpreds)
	gmn, gmx, gok, err := r.MinMax(agg, preds)
	if err != nil || gok != ok || (ok && (gmn != mn || gmx != mx)) {
		t.Fatalf("%s: MinMax = (%d, %d, %v), %v; want (%d, %d, %v)", ctx, gmn, gmx, gok, err, mn, mx, ok)
	}
	attrs := []string{agg, "b"}
	wantVals := m.Values(attrs, mpreds)
	cols, err := r.Values(attrs, preds)
	if err != nil || len(cols) != len(attrs) {
		t.Fatalf("%s: Values = %d columns, %v", ctx, len(cols), err)
	}
	for i, attr := range attrs {
		if cols[i] == nil || !slices.Equal(cols[i], wantVals[i]) {
			t.Fatalf("%s: Values[%s] holds %d values (nil: %v), want %d, or different ones", ctx, attr, len(cols[i]), cols[i] == nil, len(wantVals[i]))
		}
	}
}

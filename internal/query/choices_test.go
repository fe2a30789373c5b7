package query

import (
	"testing"

	"holistic/internal/column"
	"holistic/internal/groupby"
	"holistic/internal/model"
)

// TestEveryChoiceReachedByItsRule runs one dataset through all seven
// modes with nothing pinned, and each physical choice the planner makes
// happens by its own rule, from data and mode alone:
//
//   - scan and adaptive, with no key-ordered path on the never-cracked
//     key w, group and join by hash;
//   - offline, which sorts on demand, groups by sort and joins by merge;
//   - the narrow composite key (g, h) groups dense;
//   - a 1% drive runs as a position list, a 50% drive as a bitmap;
//   - a single conjunct runs native.
//
// Every answer equals the model's, and the observers count each choice
// at least once across the modes.
func TestEveryChoiceReachedByItsRule(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(2, 6000, domain, 83)
	narrow := func(name, src string, mod int64) {
		vals := make([]int64, tab.Rows())
		for i, v := range tab.Column(src).Values() {
			vals[i] = v % mod
		}
		tab.MustAddColumn(column.New(name, vals))
	}
	narrow("g", "a", 16)
	narrow("h", "b", 8)
	wideKey(tab, "a")
	m := modelOf(tab)

	half := []Predicate{{Attr: "a", Lo: 0, Hi: domain / 2}}
	aggs := []groupby.Agg{groupby.Count(), groupby.Sum("b")}
	counts := []struct {
		preds []Predicate
		rep   string
	}{
		{[]Predicate{{Attr: "a", Lo: 0, Hi: domain / 100}, {Attr: "b", Lo: 0, Hi: 3 * domain / 4}}, "poslist"},
		{[]Predicate{{Attr: "a", Lo: 0, Hi: domain / 2}, {Attr: "b", Lo: 0, Hi: 3 * domain / 4}}, "bitmap"},
		{half, "native"},
	}
	// The self-join on w pairs rows with equal a: the half-selected left
	// side meets every row of its value.
	pairs, _ := model.Join(m, "w", m.Rows(mp(half)), m, "w", m.Rows(nil))

	walks := map[string]bool{"scan": false, "adaptive": false, "offline": true}
	total := map[string]int64{}
	for mode, exec := range allModeExecutors(t, tab) {
		t.Run(mode, func(t *testing.T) {
			defer exec.Close()
			r := New(tab, exec, 2)
			ob := observed(r)
			for _, keys := range [][]string{{"w"}, {"g", "h"}} {
				res, err := r.Grouped(keys, aggs, half)
				if err != nil {
					t.Fatal(err)
				}
				checkGrouped(t, res, m, keys, aggs, half, mode)
				want := groupby.StrategyDense
				if keys[0] == "w" {
					want = groupby.StrategyHash
					if walks[mode] {
						want = groupby.StrategySort
					}
				}
				if _, known := walks[mode]; (known || len(keys) == 2) && res.Strategy != want {
					t.Errorf("group by %v: strategy %v, want %v", keys, res.Strategy, want)
				}
			}
			tr, n, err := r.Join(r, "w", "w", half, nil).Explain()
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(pairs)) {
				t.Fatalf("self-join count %d, want %d", n, len(pairs))
			}
			if walk, ok := walks[mode]; ok && (tr.Strategy == "merge") != walk {
				t.Errorf("self-join strategy %s, want merge = %v", tr.Strategy, walk)
			}
			for _, c := range counts {
				tr, n, err := r.ExplainCount(c.preds)
				if err != nil {
					t.Fatal(err)
				}
				if want := m.Count(mp(c.preds)); n != want {
					t.Fatalf("count %v = %d, want %d", c.preds, n, want)
				}
				if tr.Rep != c.rep {
					t.Errorf("count %v ran %s, want %s", c.preds, tr.Rep, c.rep)
				}
			}
			snap := ob.Query.Snapshot()
			for k, v := range snap.Strategies {
				total[k] += v
			}
			for k, v := range snap.Representations {
				total[k] += v
			}
		})
	}
	for _, choice := range []string{"groupby/hash", "groupby/sort", "groupby/dense", "join/hash", "join/merge", "poslist", "bitmap", "native"} {
		if total[choice] == 0 {
			t.Errorf("no mode ran %s: %v", choice, total)
		}
	}
}

package query

import (
	"testing"

	"holistic/internal/column"
	"holistic/internal/groupby"
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
// Every answer equals the oracle, and the observers count each choice
// at least once across the modes.
func TestEveryChoiceReachedByItsRule(t *testing.T) {
	const domain = 1 << 12
	tab, cols := buildTable(2, 6000, domain, 83)
	narrow := func(name, src string, mod int64) []int64 {
		vals := make([]int64, tab.Rows())
		for i, v := range tab.Column(src).Values() {
			vals[i] = v % mod
		}
		tab.MustAddColumn(column.New(name, vals))
		return vals
	}
	cols = append(cols, narrow("g", "a", 16), narrow("h", "b", 8), wideKey(tab, "a"))
	colOf := map[string]int{"a": 0, "b": 1, "g": 2, "h": 3, "w": 4}

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
	perA := map[int64]int64{}
	for _, v := range cols[0] {
		perA[v]++
	}
	var wantPairs int64
	for _, v := range cols[0] {
		if v < domain/2 {
			wantPairs += perA[v]
		}
	}

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
				checkGrouped(t, res, groupOracle(cols, colOf, keys, aggs, half), mode)
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
			if n != wantPairs {
				t.Fatalf("self-join count %d, want %d", n, wantPairs)
			}
			if walk, ok := walks[mode]; ok && (tr.Strategy == "merge") != walk {
				t.Errorf("self-join strategy %s, want merge = %v", tr.Strategy, walk)
			}
			for _, c := range counts {
				tr, n, err := r.ExplainCount(c.preds)
				if err != nil {
					t.Fatal(err)
				}
				if want := len(oracle(cols, colOf, c.preds)); n != want {
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

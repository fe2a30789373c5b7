package query

import (
	"testing"

	"holistic/internal/column"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/model"
)

// TestEveryChoiceReachedByItsRule runs one dataset through all seven
// modes with nothing pinned, and each physical choice the planner makes
// happens by its own rule, from data and mode alone:
//
//   - scan and adaptive, with no key-ordered path on the never-cracked
//     key w, group and join by hash;
//   - offline, which sorts on demand, groups by sort and joins by merge
//     on w;
//   - a self-join on the dense key k hashes in every mode, offline
//     included: the hash table addresses its build keys directly, so
//     under holistic k never enters the daemon's index space;
//   - the narrow composite key (g, h) groups dense;
//   - a 1% drive runs as a position list, a 50% drive as a bitmap;
//   - a single conjunct runs native;
//   - a residual conjunct is selected through its index and intersected
//     when its path is refined around it, or sorted with row ids, and
//     many candidates are left; it is probed when its attribute has no
//     selectable path, when few candidates are left, or when the pieces
//     its bounds fall in are large (residualChoices).
//
// Every answer equals the model's, and the observers count each choice
// at least once across the modes.
func TestEveryChoiceReachedByItsRule(t *testing.T) {
	const domain = 1 << 12
	tab := buildTable(3, 6000, domain, 83)
	narrow := func(name, src string, mod int64) {
		vals := make([]int64, tab.Rows())
		for i, v := range tab.Column(src).Values() {
			vals[i] = v % mod
		}
		tab.MustAddColumn(column.New(name, vals))
	}
	narrow("g", "a", 16)
	narrow("h", "b", 8)
	narrow("x", "a", domain) // a copy of a: x and a select together or not at all
	narrow("k", "c", domain) // a copy of c: a dense join key no query selects on
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
	densePairs, _ := model.Join(m, "k", m.Rows(mp(half)), m, "k", m.Rows(nil))

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
			tr, n, err = r.Join(r, "k", "k", half, nil).Explain()
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(densePairs)) {
				t.Fatalf("dense self-join count %d, want %d", n, len(densePairs))
			}
			if tr.Strategy != "hash" {
				t.Errorf("dense self-join strategy %s, want hash", tr.Strategy)
			}
			if exec.Daemon() != nil && admitted(exec, "k") {
				t.Error("the dense join key entered the daemon's index space")
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
	residualChoices(t, tab, m)
}

// residualChoices reaches each branch of chooseResidual by data and mode
// alone. Each case runs a warm-up query that shapes the residual's index,
// then a traced count whose conjunct named by check must be applied as
// want; the counts equal the model's.
func residualChoices(t *testing.T, tab *engine.Table, m *model.Table) {
	const domain = 1 << 12
	drive := func(hi int64) Predicate { return Predicate{Attr: "a", Lo: 0, Hi: hi} }
	wide := Predicate{Attr: "b", Lo: domain / 8, Hi: 7 * domain / 8} // 75%: never the drive
	cases := []struct {
		name, mode string
		warm       []Predicate // run first, as a query of its own
		query      []Predicate
		check      string
		want       string
	}{
		// b cracked on exactly the residual's bounds: no work, and 50% of
		// the rows left to probe.
		{"refined cracker", "adaptive", []Predicate{wide}, []Predicate{drive(domain / 2), wide}, "b", "index"},
		{"refined cracker", "holistic", []Predicate{wide}, []Predicate{drive(domain / 2), wide}, "b", "index"},
		// A dense drive on b sorts it with row ids; the residual then
		// binary-searches it.
		{"sorted path", "offline", []Predicate{wide, {Attr: "a", Lo: 0, Hi: domain}}, []Predicate{drive(domain / 2), wide}, "b", "index"},
		{"no selectable path", "scan", nil, []Predicate{drive(domain / 2), wide}, "b", "probe"},
		// a and its copy x leave ~1.6% of the rows for c, refined as it is.
		{"few candidates left", "adaptive", []Predicate{{Attr: "c", Lo: 0, Hi: 9 * domain / 16}},
			[]Predicate{drive(domain / 2), {Attr: "x", Lo: domain/2 - domain/64, Hi: domain}, {Attr: "c", Lo: 0, Hi: 9 * domain / 16}}, "c", "probe"},
		// b cracked far below the residual's bounds: both fall into one
		// piece of nearly the whole column, which would be partitioned
		// twice to serve a 25% drive.
		{"unrefined boundary piece", "adaptive", []Predicate{{Attr: "b", Lo: 0, Hi: 8}}, []Predicate{drive(domain / 4), wide}, "b", "probe"},
	}
	for _, c := range cases {
		t.Run("residual/"+c.name+"/"+c.mode, func(t *testing.T) {
			execs := allModeExecutors(t, tab)
			for mode, exec := range execs {
				if mode != c.mode {
					exec.Close()
				}
			}
			exec := execs[c.mode]
			defer exec.Close()
			r := New(tab, exec, 2)
			if c.warm != nil {
				if n, err := r.Count(c.warm); err != nil || n != m.Count(mp(c.warm)) {
					t.Fatalf("warm-up count %v = %d, %v; want %d", c.warm, n, err, m.Count(mp(c.warm)))
				}
			}
			tr, n, err := r.ExplainCount(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.Count(mp(c.query)); n != want {
				t.Fatalf("count %v = %d, want %d", c.query, n, want)
			}
			for _, ct := range tr.Conjuncts {
				if ct.Attr == c.check && ct.Applied != c.want {
					t.Errorf("residual %s applied by %s, want %s:\n%s", ct.Attr, ct.Applied, c.want, tr)
				}
				if hasPath := c.name != "no selectable path"; ct.Attr == c.check && (ct.IndexRows >= 0) != hasPath {
					t.Errorf("residual %s has a selectable path: %v, want %v:\n%s", ct.Attr, ct.IndexRows >= 0, hasPath, tr)
				}
			}
			if sum, err := r.Sum("b", c.query); err != nil || sum != m.Sum("b", mp(c.query)) {
				t.Errorf("sum(b) %v = %d, %v; want %d", c.query, sum, err, m.Sum("b", mp(c.query)))
			}
		})
	}
}

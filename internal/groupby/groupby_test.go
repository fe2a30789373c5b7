package groupby

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"holistic/internal/column"
	"holistic/internal/model"
)

// modelGroup is the model's answer for grouping the positions of sel by
// keyCols, aggregate a reading aggCols[a] (nil for a count).
func modelGroup(keyCols [][]int64, aggSpecs []Agg, aggCols [][]int64, sel []uint32) ([][]int64, [][]int64) {
	var names, keys []string
	var cols [][]int64
	for k, col := range keyCols {
		keys = append(keys, fmt.Sprint("k", k))
		names, cols = append(names, keys[k]), append(cols, col)
	}
	aggs := make([]model.Agg, len(aggSpecs))
	for a, s := range aggSpecs {
		aggs[a].Kind = [...]model.Kind{KindCount: model.Count, KindSum: model.Sum, KindMin: model.Min, KindMax: model.Max}[s.Kind]
		if s.Kind != KindCount {
			aggs[a].Attr = fmt.Sprint("v", a)
			names, cols = append(names, aggs[a].Attr), append(cols, aggCols[a])
		}
	}
	return model.New(names, cols...).Group(keys, aggs, sel)
}

// checkEqual compares a Result against the model's columns.
func checkEqual(t *testing.T, res *Result, wantKeys, wantAggs [][]int64) {
	t.Helper()
	if len(res.Keys) != len(wantKeys) || len(res.Aggs) != len(wantAggs) {
		t.Fatalf("shape = %d keys / %d aggs, want %d / %d", len(res.Keys), len(res.Aggs), len(wantKeys), len(wantAggs))
	}
	n := 0
	if len(wantKeys) > 0 {
		n = len(wantKeys[0])
	}
	if res.Len() != n {
		t.Fatalf("groups = %d, want %d (strategy %v)", res.Len(), n, res.Strategy)
	}
	for k := range wantKeys {
		for g := range wantKeys[k] {
			if res.Keys[k][g] != wantKeys[k][g] {
				t.Fatalf("key[%d][%d] = %d, want %d (strategy %v)", k, g, res.Keys[k][g], wantKeys[k][g], res.Strategy)
			}
		}
	}
	for a := range wantAggs {
		for g := range wantAggs[a] {
			if res.Aggs[a][g] != wantAggs[a][g] {
				t.Fatalf("agg[%d][%d] = %d, want %d (strategy %v)", a, g, res.Aggs[a][g], wantAggs[a][g], res.Strategy)
			}
		}
	}
}

// buildSpec assembles a spec over plain columns with exact domains.
func buildSpec(keyCols, aggCols [][]int64, aggSpecs []Agg, threads int) *Spec {
	spec := &Spec{Aggs: aggSpecs, Threads: threads}
	for _, col := range keyCols {
		lo, hi := column.Bounds(col)
		spec.Keys = append(spec.Keys, Key{View: column.View{Base: col}, Lo: lo, Hi: hi})
	}
	for a := range aggSpecs {
		var v column.View
		if aggSpecs[a].Kind != KindCount {
			v = column.View{Base: aggCols[a]}
		}
		spec.AggViews = append(spec.AggViews, v)
	}
	return spec
}

// widen declares every key's domain at least 2^40 values wide: too wide
// to pack densely, so the crossover rule picks hash for the same rows.
func widen(spec *Spec) {
	for k := range spec.Keys {
		spec.Keys[k].Hi = max(spec.Keys[k].Hi, spec.Keys[k].Lo+1<<40)
	}
}

// clusterStream turns a key column into the key-ordered stream of an
// index walk: (value, row) pairs sorted by value, cut into clusters at
// random ascending boundaries that never split equal values, rows
// shuffled inside each cluster (a cracker piece is unordered).
func clusterStream(rng *rand.Rand, keyCol []int64) func(fn func(vals []int64, rows []uint32)) {
	rows := make([]uint32, len(keyCol))
	for i := range rows {
		rows[i] = uint32(i)
	}
	sort.Slice(rows, func(i, j int) bool { return keyCol[rows[i]] < keyCol[rows[j]] })
	vals := make([]int64, len(rows))
	var cuts []int
	for i := 0; i < len(rows); {
		j := min(i+1+rng.Intn(2*chunkSize), len(rows))
		for j < len(rows) && keyCol[rows[j]] == keyCol[rows[j-1]] {
			j++
		}
		rng.Shuffle(j-i, func(a, b int) { rows[i+a], rows[i+b] = rows[i+b], rows[i+a] })
		cuts = append(cuts, j)
		i = j
	}
	for i, r := range rows {
		vals[i] = keyCol[r]
	}
	return func(fn func(vals []int64, rows []uint32)) {
		lo := 0
		for _, hi := range cuts {
			fn(vals[lo:hi], rows[lo:hi])
			lo = hi
		}
	}
}

// TestStrategiesAgreeWithModel runs randomized fused plans through
// every feeder of the core against the model: both
// selection-vector forms under the dense and hash strategies,
// sequential and partition-parallel (a third of the trials are large
// enough that threads=4 really splits the selection and merges
// partials); and, for single-key trials, the cluster walk
// over random ascending cluster cuts. Trials rotate through exact key
// domains, a stale domain whose escaping values sit in one eighth of
// the rows (so one worker's dense partial migrates, or one worker's hash
// turns tuple-keyed, and the merge mixes them with partials that did
// not), and a composite wider than 64 bits; every other trial reads
// its aggregates through an overlay view (tail, updated, deleted).
func TestStrategiesAgreeWithModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows := 500 + rng.Intn(4000)
		if trial%3 == 0 {
			rows = 2*minParallel + rng.Intn(4000)
		}
		nkeys := 1 + rng.Intn(3)
		wide := nkeys > 1 && trial%5 == 1
		stale := trial%5 == 2
		keyCols := make([][]int64, nkeys)
		for k := range keyCols {
			domain := int64(2 + rng.Intn(40))
			base := rng.Int63n(100) - 50
			col := make([]int64, rows)
			for i := range col {
				col[i] = base + rng.Int63n(domain)
				if wide {
					col[i] = (col[i] - base) * (math.MaxInt64 / 64) // 63 bits per key
				}
			}
			keyCols[k] = col
		}
		aggSpecs := []Agg{Count(), Sum("x"), Min("x"), Max("x")}
		aggCols := make([][]int64, len(aggSpecs))
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(10000) - 5000
		}
		for a := range aggCols {
			aggCols[a] = vals
		}
		aggCols[0] = nil

		var sel column.PosList
		bm := column.NewBitmap(rows)
		for i := 0; i < rows; i++ {
			if rng.Intn(3) != 0 || i == 0 || i == rows-1 {
				sel = append(sel, column.Pos(i))
				bm.Set(column.Pos(i))
			}
		}

		// The declared key domains are exact — except that a stale trial
		// then moves some rows of one eighth of the column (its first and
		// last row for certain, both selected) past a key's declared
		// maximum: the last eighth and the first key, or the first eighth
		// and the last key, so either side of a merge gets to be the
		// partial that escaped.
		declared := buildSpec(keyCols, aggCols, aggSpecs, 1).Keys
		if stale {
			k, lo := 0, rows-rows/8
			if trial%10 == 7 {
				k, lo = nkeys-1, 0
			}
			for i := lo; i < lo+rows/8; i++ {
				if i == lo || i == lo+rows/8-1 || rng.Intn(40) == 0 {
					keyCols[k][i] = declared[k].Hi + 1 + rng.Int63n(3)
				}
			}
		}
		// The aggregate attribute, read plain or through an overlay whose
		// logical content is the same: a tenth of the rows live in the
		// tail, some base values are stale under an update, some unselected
		// rows are deleted.
		aggView := column.View{Base: vals}
		if trial%2 == 1 {
			nb := rows - rows/10
			aggView = column.View{
				Base:    append([]int64(nil), vals[:nb]...),
				Tail:    vals[nb:],
				Updated: map[column.Pos]int64{},
				Deleted: map[column.Pos]struct{}{},
			}
			for i := 0; i < rows; i += 1 + rng.Intn(50) {
				if !bm.Test(column.Pos(i)) {
					aggView.Deleted[column.Pos(i)] = struct{}{}
				} else if i < nb {
					aggView.Base[i] = ^vals[i]
					aggView.Updated[column.Pos(i)] = vals[i]
				}
			}
		}
		mkSpec := func(threads int) *Spec {
			spec := buildSpec(keyCols, aggCols, aggSpecs, threads)
			for k := range spec.Keys {
				spec.Keys[k].Lo, spec.Keys[k].Hi = declared[k].Lo, declared[k].Hi
			}
			for a := 1; a < len(spec.AggViews); a++ {
				spec.AggViews[a] = aggView
			}
			return spec
		}
		wantKeys, wantAggs := modelGroup(keyCols, aggSpecs, aggCols, sel)
		check := func(feed string, res *Result) {
			t.Helper()
			if (stale || wide) && res.Strategy == StrategyDense {
				t.Fatalf("trial %d %s: strategy dense over a stale or unpackable domain", trial, feed)
			}
			checkEqual(t, res, wantKeys, wantAggs)
		}

		// The declared domains as they are, then widened past any dense
		// packing: the same rows through whichever accumulator the
		// domains pick, then through hash.
		for _, threads := range []int{1, 4} {
			for _, widened := range []bool{false, true} {
				spec := mkSpec(threads)
				if widened {
					widen(spec)
				}
				var res Result
				if err := GroupRows(spec, sel, &res); err != nil {
					t.Fatal(err)
				}
				check("rows", &res)
				if widened && res.Strategy != StrategyHash {
					t.Fatalf("trial %d: strategy %v over a widened domain, want hash", trial, res.Strategy)
				}
				if err := GroupBitmap(spec, bm, &res); err != nil {
					t.Fatal(err)
				}
				check("bitmap", &res)
			}
		}

		spec := mkSpec(1)
		var res Result

		// The cluster walk streams the key itself: refined, or — every
		// other trial — spread past DefaultClusterSlots, so that a cluster
		// holding two distinct keys hashes.
		if nkeys == 1 {
			key, wantKeys := keyCols[0], wantKeys
			if trial%2 == 1 {
				key = make([]int64, rows)
				for i, v := range keyCols[0] {
					key[i] = v * 2 * DefaultClusterSlots
				}
				wantKeys, _ = modelGroup([][]int64{key}, aggSpecs, aggCols, sel)
			}
			if err := GroupClusters(spec, bm, clusterStream(rng, key), &res); err != nil {
				t.Fatal(err)
			}
			if res.Strategy != StrategySort {
				t.Fatalf("trial %d clusters: strategy = %v, want sort", trial, res.Strategy)
			}
			checkEqual(t, &res, wantKeys, wantAggs)
		}
	}
}

// runBitmap selects rows in runs of whole words — all set, none set or
// a random half — of 1 to 100 words each, so full runs shorter and
// longer than a chunk (64 words) straddle the chunk boundaries and the
// worker-span boundaries; the last row's word is partial.
func runBitmap(rng *rand.Rand, rows int) (*column.Bitmap, column.PosList) {
	bm := column.NewBitmap(rows)
	var sel column.PosList
	for w := 0; w*64 < rows; {
		kind, n := rng.Intn(3), 1+rng.Intn(100)
		for ; n > 0 && w*64 < rows; n, w = n-1, w+1 {
			for p := w * 64; p < min(w*64+64, rows); p++ {
				if kind == 0 || kind == 2 && rng.Intn(2) == 0 {
					bm.Set(column.Pos(p))
					sel = append(sel, column.Pos(p))
				}
			}
		}
	}
	return bm, sel
}

// overlay returns a view whose logical content is vals: the last tenth
// lives in the tail, some base values are stale under an update, and
// some rows outside sel are deleted.
func overlay(rng *rand.Rand, vals []int64, bm *column.Bitmap) column.View {
	nb := len(vals) - len(vals)/10
	w := column.View{
		Base:    append([]int64(nil), vals[:nb]...),
		Tail:    vals[nb:],
		Updated: map[column.Pos]int64{},
		Deleted: map[column.Pos]struct{}{},
	}
	for i := 0; i < len(vals); i += 1 + rng.Intn(50) {
		if !bm.Test(column.Pos(i)) {
			w.Deleted[column.Pos(i)] = struct{}{}
		} else if i < nb {
			w.Base[i] = ^vals[i]
			w.Updated[column.Pos(i)] = vals[i]
		}
	}
	return w
}

// TestRunFeedMatchesModel drives bitmaps mixing full, partial and empty
// words (runBitmap) through GroupBitmap at threads 1 and 3, both
// accumulator sets, against the model: with every view plain (the
// all-ones runs fold in place), with one overlaid aggregate view beside
// plain ones (the gather path throughout), and with two aggregates on
// one overlaid attribute sharing a pass.
func TestRunFeedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := 3*minParallel + 64*37 + 11
	key, x, y := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range key {
		key[i] = rng.Int63n(50)
		x[i] = rng.Int63n(1<<20) - 1<<19
		y[i] = rng.Int63n(1000)
	}
	bm, sel := runBitmap(rng, rows)
	aggs := []Agg{Count(), Sum("x"), Min("x"), Max("x"), Sum("y")}
	wantKeys, wantAggs := modelGroup([][]int64{key}, aggs, [][]int64{nil, x, x, x, y}, sel)
	for _, tc := range []struct {
		name   string
		xv, yv column.View
		runs   bool
	}{
		{"plain", column.View{Base: x}, column.View{Base: y}, true},
		{"overlaid y", column.View{Base: x}, overlay(rng, y, bm), false},
		{"overlaid x", overlay(rng, x, bm), column.View{Base: y}, false},
	} {
		for _, threads := range []int{1, 3} {
			for _, want := range []Strategy{StrategyDense, StrategyHash} {
				spec := &Spec{
					Keys:     []Key{{View: column.View{Base: key}, Lo: 0, Hi: 49}},
					Aggs:     aggs,
					AggViews: []column.View{{}, tc.xv, tc.xv, tc.xv, tc.yv},
					Threads:  threads,
				}
				if want == StrategyHash {
					widen(spec)
				}
				var src source
				if src.set(spec, nil, bm); src.runs != tc.runs {
					t.Fatalf("%s: folds runs in place = %v, want %v", tc.name, src.runs, tc.runs)
				}
				var res Result
				if err := GroupBitmap(spec, bm, &res); err != nil {
					t.Fatal(err)
				}
				if res.Strategy != want {
					t.Fatalf("%s threads=%d: strategy %v, want %v", tc.name, threads, res.Strategy, want)
				}
				checkEqual(t, &res, wantKeys, wantAggs)
			}
		}
	}
}

// TestParallelCrossesThreshold exercises the partition-parallel merge on
// a selection large enough to split.
func TestParallelCrossesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := minParallel * 3
	keyCol := make([]int64, rows)
	val := make([]int64, rows)
	for i := range keyCol {
		keyCol[i] = rng.Int63n(97)
		val[i] = rng.Int63n(1000)
	}
	sel := make(column.PosList, rows)
	for i := range sel {
		sel[i] = column.Pos(i)
	}
	aggSpecs := []Agg{Count(), Sum("v"), Min("v"), Max("v")}
	aggCols := [][]int64{nil, val, val, val}
	wantKeys, wantAggs := modelGroup([][]int64{keyCol}, aggSpecs, aggCols, sel)
	for _, want := range []Strategy{StrategyDense, StrategyHash} {
		spec := buildSpec([][]int64{keyCol}, aggCols, aggSpecs, 4)
		if want == StrategyHash {
			widen(spec)
		}
		var res Result
		if err := GroupRows(spec, sel, &res); err != nil {
			t.Fatal(err)
		}
		if res.Strategy != want {
			t.Fatalf("strategy = %v, want %v", res.Strategy, want)
		}
		checkEqual(t, &res, wantKeys, wantAggs)
	}
}

// TestWideCompositeFallsBackToTupleHash: a composite key wider than 64
// bits cannot pack; the tuple-keyed hash must still group correctly.
func TestWideCompositeFallsBackToTupleHash(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := 2000
	k1 := make([]int64, rows)
	k2 := make([]int64, rows)
	val := make([]int64, rows)
	for i := range k1 {
		// Spans close to the full int64 range: 63 + 63 bits > 64.
		k1[i] = rng.Int63n(5) * (math.MaxInt64 / 7)
		k2[i] = rng.Int63n(5) * (math.MaxInt64 / 11)
		val[i] = rng.Int63n(100)
	}
	sel := make(column.PosList, rows)
	for i := range sel {
		sel[i] = column.Pos(i)
	}
	aggSpecs := []Agg{Count(), Sum("v")}
	aggCols := [][]int64{nil, val}
	wantKeys, wantAggs := modelGroup([][]int64{k1, k2}, aggSpecs, aggCols, sel)
	spec := buildSpec([][]int64{k1, k2}, aggCols, aggSpecs, 1)
	var res Result
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHash {
		t.Fatalf("strategy = %v, want hash", res.Strategy)
	}
	checkEqual(t, &res, wantKeys, wantAggs)
}

// TestStaleDomainFallsBackToHash: a key value outside the declared
// domain must not corrupt the dense path — the execution reruns through
// the hash accumulator and stays correct.
func TestStaleDomainFallsBackToHash(t *testing.T) {
	keyCol := []int64{1, 2, 3, 99} // 99 escapes the declared [1, 3]
	val := []int64{10, 20, 30, 40}
	sel := column.PosList{0, 1, 2, 3}
	aggSpecs := []Agg{Count(), Sum("v")}
	spec := &Spec{
		Keys:     []Key{{View: column.View{Base: keyCol}, Lo: 1, Hi: 3}},
		Aggs:     aggSpecs,
		AggViews: []column.View{{}, {Base: val}},
		Threads:  1,
	}
	var res Result
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHash {
		t.Fatalf("strategy = %v, want hash fallback", res.Strategy)
	}
	wantKeys, wantAggs := modelGroup([][]int64{keyCol}, aggSpecs, [][]int64{nil, val}, sel)
	checkEqual(t, &res, wantKeys, wantAggs)
}

// TestOverlayViews groups through views carrying tails, deletions and
// updates: the grouped state must reflect the logical overlay.
func TestOverlayViews(t *testing.T) {
	base := []int64{1, 1, 2, 2}
	valBase := []int64{10, 20, 30, 40}
	keyView := column.View{
		Base:    base,
		Tail:    []int64{3},
		Updated: map[column.Pos]int64{0: 2},
	}
	valView := column.View{
		Base: valBase,
		Tail: []int64{50},
	}
	// Row 0's key updated 1→2; row 4 appended with key 3, value 50.
	sel := column.PosList{0, 1, 2, 3, 4}
	lo, hi := keyView.ExtendBounds(column.Bounds(base))
	spec := &Spec{
		Keys:     []Key{{View: keyView, Lo: lo, Hi: hi}},
		Aggs:     []Agg{Count(), Sum("v")},
		AggViews: []column.View{{}, valView},
		Threads:  1,
	}
	var res Result
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	wantKeys := []int64{1, 2, 3}
	wantCounts := []int64{1, 3, 1}
	wantSums := []int64{20, 80, 50}
	if res.Len() != 3 {
		t.Fatalf("groups = %d, want 3", res.Len())
	}
	for g := range wantKeys {
		if res.Keys[0][g] != wantKeys[g] || res.Aggs[0][g] != wantCounts[g] || res.Aggs[1][g] != wantSums[g] {
			t.Fatalf("group %d = (%d, %d, %d), want (%d, %d, %d)", g,
				res.Keys[0][g], res.Aggs[0][g], res.Aggs[1][g], wantKeys[g], wantCounts[g], wantSums[g])
		}
	}
}

// TestGroupClusters drives the sort strategy through a synthetic walker
// over a cracked-style clustering (unordered within clusters, ascending
// across) and checks it against the model, for both refined (small)
// and unrefined (hash-fallback) clusters.
func TestGroupClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rows := 6000
	val := make([]int64, rows)
	bm := column.NewBitmap(rows)
	var sel column.PosList
	for i := 0; i < rows; i++ {
		val[i] = rng.Int63n(1000)
		if rng.Intn(4) != 0 {
			bm.Set(column.Pos(i))
			sel = append(sel, column.Pos(i))
		}
	}
	aggSpecs := []Agg{Count(), Sum("v"), Min("v"), Max("v")}
	aggCols := [][]int64{nil, val, val, val}

	// A refined key domain folds every cluster into a dense array; over
	// a wide one every cluster of two or more distinct keys spans past
	// DefaultClusterSlots and hashes.
	for _, domain := range []int64{1 << 12, 1 << 40} {
		keyCol := make([]int64, rows)
		for i := range keyCol {
			keyCol[i] = rng.Int63n(domain)
		}
		wantKeys, wantAggs := modelGroup([][]int64{keyCol}, aggSpecs, aggCols, sel)

		// Build a clustered stream: sort (value, row) pairs, then cut into
		// clusters at value boundaries and shuffle within each cluster.
		type pair struct {
			v int64
			r uint32
		}
		pairs := make([]pair, rows)
		for i := range pairs {
			pairs[i] = pair{keyCol[i], uint32(i)}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		var clusters [][]pair
		for i := 0; i < rows; {
			j := i + 1 + rng.Intn(500)
			if j > rows {
				j = rows
			}
			// Never split equal values across clusters.
			for j < rows && pairs[j].v == pairs[j-1].v {
				j++
			}
			c := append([]pair(nil), pairs[i:j]...)
			rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
			clusters = append(clusters, c)
			i = j
		}
		spec := buildSpec([][]int64{keyCol}, aggCols, aggSpecs, 1)
		var res Result
		err := GroupClusters(spec, bm, func(fn func(vals []int64, rows []uint32)) {
			vbuf := make([]int64, 0, 600)
			rbuf := make([]uint32, 0, 600)
			for _, c := range clusters {
				vbuf, rbuf = vbuf[:0], rbuf[:0]
				for _, p := range c {
					vbuf = append(vbuf, p.v)
					rbuf = append(rbuf, p.r)
				}
				fn(vbuf, rbuf)
			}
		}, &res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategySort {
			t.Fatalf("strategy = %v, want sort", res.Strategy)
		}
		checkEqual(t, &res, wantKeys, wantAggs)
	}
}

// TestStaleDomainMigratesToHash feeds a composite key through a
// position list, first over its exact domains (dense), then declaring a
// domain one value short: the first escaping key must migrate the dense
// state to hash mid-stream and the result stay correct.
func TestStaleDomainMigratesToHash(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rows := 5000
	k1 := make([]int64, rows)
	k2 := make([]int64, rows)
	val := make([]int64, rows)
	for i := range k1 {
		k1[i] = rng.Int63n(3)
		k2[i] = rng.Int63n(5)
		val[i] = rng.Int63n(100)
	}
	sel := make(column.PosList, rows)
	for i := range sel {
		sel[i] = column.Pos(i)
	}
	aggSpecs := []Agg{Sum("v"), Count(), Min("v")}
	aggCols := [][]int64{val, nil, val}
	wantKeys, wantAggs := modelGroup([][]int64{k1, k2}, aggSpecs, aggCols, sel)

	spec := buildSpec([][]int64{k1, k2}, aggCols, aggSpecs, 1)
	var res Result
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyDense {
		t.Fatalf("strategy = %v, want dense", res.Strategy)
	}
	checkEqual(t, &res, wantKeys, wantAggs)

	// Stale domain: declare [0, 1] but feed a 2 — the accumulator must
	// migrate to hash and stay correct.
	spec.Keys[0].Hi = 1
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyHash {
		t.Fatalf("post-migration strategy = %v, want hash", res.Strategy)
	}
	checkEqual(t, &res, wantKeys, wantAggs)
}

// TestWarmedFeedersAllocationFree: once the pooled state and the result
// table have grown, a cluster walk — dense and hash clusters alike — and
// a sequential bitmap selection folded in place allocate nothing. (The selection-vector feeders' query-level bar
// is TestSteadyStateGroupedAllocationFree in internal/query.)
func TestWarmedFeedersAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(16))
	const rows = 3 * chunkSize
	key := make([]int64, rows)
	val := make([]int64, rows)
	bm := column.NewBitmap(rows)
	for i := range key {
		key[i] = rng.Int63n(1 << 12)
		val[i] = rng.Int63n(1000)
		if i%5 != 0 {
			bm.Set(column.Pos(i))
		}
	}
	aggSpecs := []Agg{Count(), Sum("v"), Min("v"), Max("v")}
	keyCols, aggCols := [][]int64{key}, [][]int64{nil, val, val, val}
	all := column.NewBitmap(rows)
	all.SetRange(0, rows)
	for _, want := range []Strategy{StrategyDense, StrategyHash} {
		spec := buildSpec(keyCols, aggCols, aggSpecs, 1)
		if want == StrategyHash {
			widen(spec)
		}
		var res Result
		run := func() {
			if err := GroupBitmap(spec, all, &res); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
			t.Errorf("warmed in-place GroupBitmap (%v) allocates %.2f times per run, want 0", want, allocs)
		}
	}
	// Dense clusters, then the same keys spread past DefaultClusterSlots:
	// hash clusters.
	for _, scale := range []int64{1, 2 * DefaultClusterSlots} {
		scaled := make([]int64, rows)
		for i, v := range key {
			scaled[i] = v * scale
		}
		walk := clusterStream(rng, scaled)
		spec := buildSpec([][]int64{scaled}, aggCols, aggSpecs, 1)
		var res Result
		run := func() {
			if err := GroupClusters(spec, bm, walk, &res); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
			t.Errorf("warmed GroupClusters (keys x%d) allocates %.2f times per walk, want 0", scale, allocs)
		}
	}
}

// TestEmptySelection and validation errors.
func TestEdgeCases(t *testing.T) {
	keyCol := []int64{1, 2, 3}
	spec := buildSpec([][]int64{keyCol}, [][]int64{nil}, []Agg{Count()}, 1)
	var res Result
	if err := GroupRows(spec, nil, &res); err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("empty selection produced %d groups", res.Len())
	}
	if err := GroupRows(&Spec{Aggs: []Agg{Count()}}, column.PosList{0}, &res); err == nil {
		t.Error("no keys did not error")
	}
	if err := GroupRows(&Spec{Keys: spec.Keys}, column.PosList{0}, &res); err == nil {
		t.Error("no aggregates did not error")
	}
	if err := GroupClusters(buildSpec([][]int64{keyCol, keyCol}, [][]int64{nil}, []Agg{Count()}, 1), column.NewBitmap(3), func(func([]int64, []uint32)) {}, &res); err == nil {
		t.Error("multi-key sort grouping did not error")
	}
	// Result reuse: a second run truncates prior groups.
	sel := column.PosList{0, 1, 2}
	if err := GroupRows(spec, sel, &res); err != nil {
		t.Fatal(err)
	}
	if err := GroupRows(spec, sel[:1], &res); err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("reused result has %d groups, want 1", res.Len())
	}
}

// TestAggString covers the debug renderings.
func TestAggString(t *testing.T) {
	cases := map[string]string{
		Count().String():  "count(*)",
		Sum("x").String(): "sum(x)",
		Min("y").String(): "min(y)",
		Max("z").String(): "max(z)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("agg string = %q, want %q", got, want)
		}
	}
	if StrategyDense.String() != "dense" || StrategyHash.String() != "hash" || StrategySort.String() != "sort" || StrategyAuto.String() != "auto" {
		t.Error("strategy strings wrong")
	}
}

// TestConcurrentGroupedQueriesIndependentPacking is the regression test
// for the pooled-state packing alias: partition-parallel runs used to
// seed the pool with worker states whose packing slices shared backing
// arrays, so later concurrent queries with different key domains could
// corrupt each other's packing mid-query. Two goroutines with disjoint
// key domains must stay independent (run under -race).
func TestConcurrentGroupedQueriesIndependentPacking(t *testing.T) {
	const rows = minParallel * 2
	mkData := func(seed int64, span int64, base int64) (*Spec, column.PosList, int64) {
		rng := rand.New(rand.NewSource(seed))
		key := make([]int64, rows)
		val := make([]int64, rows)
		var sum int64
		for i := range key {
			key[i] = base + rng.Int63n(span)
			val[i] = rng.Int63n(100)
			sum += val[i]
		}
		sel := make(column.PosList, rows)
		for i := range sel {
			sel[i] = column.Pos(i)
		}
		spec := buildSpec([][]int64{key}, [][]int64{nil, val}, []Agg{Count(), Sum("v")}, 4)
		return spec, sel, sum
	}
	specA, selA, sumA := mkData(21, 37, -1000)
	specB, selB, sumB := mkData(22, 4093, 1<<40) // different domain, width and offset

	// Seed the pool with parallel-run worker states.
	var warm Result
	if err := GroupRows(specA, selA, &warm); err != nil {
		t.Fatal(err)
	}
	if err := GroupRows(specB, selB, &warm); err != nil {
		t.Fatal(err)
	}

	check := func(spec *Spec, sel column.PosList, wantSum int64) error {
		var res Result
		if err := GroupRows(spec, sel, &res); err != nil {
			return err
		}
		var n, s int64
		for g := 0; g < res.Len(); g++ {
			k := res.Keys[0][g]
			if k < spec.Keys[0].Lo || k > spec.Keys[0].Hi {
				return fmt.Errorf("group key %d outside domain [%d, %d]", k, spec.Keys[0].Lo, spec.Keys[0].Hi)
			}
			n += res.Aggs[0][g]
			s += res.Aggs[1][g]
		}
		if n != rows || s != wantSum {
			return fmt.Errorf("totals (%d, %d), want (%d, %d)", n, s, rows, wantSum)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if errs[0] = check(specA, selA, sumA); errs[0] != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if errs[1] = check(specB, selB, sumB); errs[1] != nil {
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

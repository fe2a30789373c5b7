package engine

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/model"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
	"holistic/internal/workload"
)

func testTable(t *testing.T, attrs, rows int, domain int64) (*Table, [][]int64) {
	t.Helper()
	tbl := NewTable("R")
	bases := make([][]int64, attrs)
	for a := 0; a < attrs; a++ {
		bases[a] = workload.UniformColumn(rows, domain, int64(100+a))
		tbl.MustAddColumn(column.New(attrName(a), bases[a]))
	}
	return tbl, bases
}

func attrName(a int) string { return string(rune('A' + a)) }

func TestTableBasics(t *testing.T) {
	tbl := NewTable("R")
	if tbl.Rows() != 0 {
		t.Errorf("empty table Rows() = %d", tbl.Rows())
	}
	tbl.MustAddColumn(column.New("A", []int64{1, 2, 3}))
	if err := tbl.AddColumn(column.New("A", []int64{4, 5, 6})); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tbl.AddColumn(column.New("B", []int64{1})); err == nil {
		t.Error("mismatched length accepted")
	}
	tbl.MustAddColumn(column.New("B", []int64{4, 5, 6}))
	if tbl.Rows() != 3 {
		t.Errorf("Rows() = %d, want 3", tbl.Rows())
	}
	names := tbl.ColumnNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("ColumnNames() = %v", names)
	}
	if tbl.Column("C") != nil {
		t.Error("Column(C) non-nil")
	}
}

// allExecutors builds one executor per mode over the same table. Cracking
// configurations carry rowids so the SelectRows form is answerable.
func allExecutors(t *testing.T, tbl *Table) []*Executor {
	t.Helper()
	return []*Executor{
		NewScanExecutor(tbl, 2),
		NewOfflineExecutor(tbl, 2),
		NewOnlineExecutor(tbl, 2, 20),
		NewAdaptiveExecutor(tbl, cracking.Config{}, ""),
		NewAdaptiveExecutor(tbl, cracking.Config{Stochastic: true, Seed: 5}, "stochastic"),
		NewCCGIExecutor(tbl, 2, 8, cracking.Config{}),
		NewHolisticExecutor(tbl, HolisticConfig{
			Cracking: cracking.Config{},
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 4, Seed: 3},
			L1Values: 256,
			Contexts: 2,
		}),
	}
}

func TestAllModesAgreeWithScan(t *testing.T) {
	const domain = 1 << 16
	tbl, bases := testTable(t, 3, 20_000, domain)
	execs := allExecutors(t, tbl)
	defer func() {
		for _, e := range execs {
			e.Close()
		}
	}()
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 60; q++ {
		a := rng.Intn(3)
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(domain-lo) + 1
		want := column.CountRange(bases[a], lo, hi)
		for _, e := range execs {
			got, err := e.Count(attrName(a), lo, hi)
			if err != nil {
				t.Fatalf("%s: %v", e.Label(), err)
			}
			if got != want {
				t.Fatalf("%s query %d [%d,%d) attr %s: got %d, want %d",
					e.Label(), q, lo, hi, attrName(a), got, want)
			}
		}
	}
}

// TestAllModesAggregatesAgreeWithScan is the executor-level differential
// test: every mode's Sum, MinMax and SelectRows must agree with the naive
// scan oracle on random range predicates.
func TestAllModesAggregatesAgreeWithScan(t *testing.T) {
	const domain = 1 << 16
	tbl, bases := testTable(t, 2, 20_000, domain)
	execs := allExecutors(t, tbl)
	defer func() {
		for _, e := range execs {
			e.Close()
		}
	}()
	rng := rand.New(rand.NewSource(21))
	for q := 0; q < 40; q++ {
		a := rng.Intn(2)
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(domain-lo) + 1
		wantSum := column.ParallelSumRange(bases[a], lo, hi, 1)
		wantMn, wantMx, wantN := column.ParallelMinMaxRange(bases[a], lo, hi, 1)
		wantRows := column.ScanRange(bases[a], lo, hi)
		for _, e := range execs {
			sum, err := e.Sum(attrName(a), lo, hi)
			if err != nil {
				t.Fatalf("%s: Sum: %v", e.Label(), err)
			}
			if sum != wantSum {
				t.Fatalf("%s query %d [%d,%d): Sum = %d, want %d", e.Label(), q, lo, hi, sum, wantSum)
			}
			mn, mx, ok, err := e.MinMax(attrName(a), lo, hi)
			if err != nil {
				t.Fatalf("%s: MinMax: %v", e.Label(), err)
			}
			if ok != (wantN > 0) || (ok && (mn != wantMn || mx != wantMx)) {
				t.Fatalf("%s query %d [%d,%d): MinMax = (%d,%d,%v), want (%d,%d,%v)",
					e.Label(), q, lo, hi, mn, mx, ok, wantMn, wantMx, wantN > 0)
			}
			rows, err := e.SelectRows(attrName(a), lo, hi)
			if err != nil {
				t.Fatalf("%s: SelectRows: %v", e.Label(), err)
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
			if len(rows) != len(wantRows) {
				t.Fatalf("%s query %d [%d,%d): %d rows, want %d", e.Label(), q, lo, hi, len(rows), len(wantRows))
			}
			for i := range rows {
				if rows[i] != wantRows[i] {
					t.Fatalf("%s query %d: row[%d] = %d, want %d", e.Label(), q, i, rows[i], wantRows[i])
				}
			}
		}
	}
}

// TestSortedModesSortOnce: offline indexing's PrepareAll and online
// indexing's epoch-end sort build the sorted copy with row ids, so the
// selects that need rows answer from it instead of sorting the column
// again: the attribute's access path stays the one the sort published.
func TestSortedModesSortOnce(t *testing.T) {
	tbl, bases := testTable(t, 1, 1_000, 1000)
	want := column.ScanRange(bases[0], 0, 100)
	off := NewOfflineExecutor(tbl, 2)
	off.PrepareAll()
	on := NewOnlineExecutor(tbl, 2, 1)
	for i := 0; i < 2; i++ { // the second query ends the epoch
		if _, err := on.Count("A", 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*Executor{off, on} {
		p, ok := e.attrs["A"].current().(*sortedPath)
		if !ok {
			t.Fatalf("%s: no sorted copy after the sort", e.Label())
		}
		bm := column.NewBitmap(0)
		if err := e.SelectBitmap("A", 0, 100, bm); err != nil || !slices.Equal(bm.AppendPositions(nil), want) {
			t.Errorf("%s: SelectBitmap = %d rows, %v; want %d", e.Label(), bm.Count(), err, len(want))
		}
		rows, err := e.SelectRows("A", 0, 100)
		slices.Sort(rows)
		if err != nil || !slices.Equal(rows, want) {
			t.Errorf("%s: SelectRows = %d rows, %v; want %d", e.Label(), len(rows), err, len(want))
		}
		if e.attrs["A"].current() != accessPath(p) {
			t.Errorf("%s: a select that needs rows sorted the column again", e.Label())
		}
	}
}

// TestEveryIndexCarriesRowIDs: from a zero configuration every index the
// engine builds — a cracker column (New, and NewCracked as a first touch
// builds it), a CCGI index and a sorted copy — carries row ids, over a
// domain inside one 2^32 window (the packed layout) and over a wider one
// (values beside a rowid array): every tuple's row id names a distinct
// base row that holds its value.
func TestEveryIndexCarriesRowIDs(t *testing.T) {
	narrow := workload.UniformColumn(20_000, 1<<20, 61)
	wide := slices.Clone(narrow)
	for i := range wide {
		wide[i] = (wide[i] - 1<<19) << 30
	}
	for _, tc := range []struct {
		name       string
		base       []int64
		tupleBytes int64
	}{{"narrow", narrow, 8}, {"wide", wide, 12}} {
		base := tc.base
		lo, hi := slices.Min(base)/2+slices.Max(base)/4, slices.Max(base)/2
		check := func(index string, vals []int64, rows []uint32) {
			t.Helper()
			if len(vals) != len(base) || len(rows) != len(base) {
				t.Fatalf("%s %s: %d values, %d row ids over %d base rows", tc.name, index, len(vals), len(rows), len(base))
			}
			seen := make([]bool, len(base))
			for i, r := range rows {
				if int(r) >= len(base) || seen[r] || base[r] != vals[i] {
					t.Fatalf("%s %s: tuple %d (value %d) names row %d", tc.name, index, i, vals[i], r)
				}
				seen[r] = true
			}
		}
		c := cracking.New("A", base, cracking.Config{})
		c.SelectRange(lo, hi)
		check("cracking.New", c.Snapshot(), c.SnapshotRows())
		nc := cracking.NewCracked("A", base, cracking.Config{}, lo, hi)
		check("cracking.NewCracked", nc.Snapshot(), nc.SnapshotRows())
		for _, col := range []*cracking.Column{c, nc} {
			if got := col.SizeBytes(); got != tc.tupleBytes*int64(len(base)) {
				t.Fatalf("%s: a cracker of %d tuples holds %d bytes, want %d a tuple", tc.name, len(base), got, tc.tupleBytes)
			}
		}
		var vals []int64
		var rows []uint32
		ccgi.New("A", base, 3, 8, cracking.Config{}).SelectSegments(math.MinInt64, math.MaxInt64, func(_ int, off uint32, s cracking.Segment) {
			for i := 0; i < s.Len(); i++ {
				vals, rows = append(vals, s.Value(i)), append(rows, off+s.Row(i))
			}
		})
		check("ccgi", vals, rows)
		sc := sortidx.Build("A", base, 2)
		check("sortidx", sc.Values(), sc.Rows(0, sc.Len()))
	}
}

// TestCrackingExecutorsAlwaysCarryRowIDs: from a zero cracking.Config
// the cracking executors build (oid, value) crackers, so the row-id
// terminals answer.
func TestCrackingExecutorsAlwaysCarryRowIDs(t *testing.T) {
	tbl, bases := testTable(t, 1, 1_000, 1000)
	want := column.ScanRange(bases[0], 0, 100)
	for _, e := range []*Executor{
		NewAdaptiveExecutor(tbl, cracking.Config{}, ""),
		NewCCGIExecutor(tbl, 2, 4, cracking.Config{}),
	} {
		rows, err := e.SelectRows("A", 0, 100)
		slices.Sort(rows)
		if err != nil || !slices.Equal(rows, want) {
			t.Errorf("%s: SelectRows = %d rows, %v; want %d", e.Label(), len(rows), err, len(want))
		}
		bm := column.NewBitmap(0)
		if err := e.SelectBitmap("A", 0, 100, bm); err != nil || !slices.Equal(bm.AppendPositions(nil), want) {
			t.Errorf("%s: SelectBitmap = %d rows, %v; want %d", e.Label(), bm.Count(), err, len(want))
		}
		e.Close()
	}
}

func TestUnknownAttributeErrors(t *testing.T) {
	tbl, _ := testTable(t, 1, 100, 1000)
	execs := allExecutors(t, tbl)
	defer func() {
		for _, e := range execs {
			e.Close()
		}
	}()
	for _, e := range execs {
		if _, err := e.Count("nope", 0, 10); err == nil {
			t.Errorf("%s: unknown attribute did not error on Count", e.Label())
		}
		if _, err := e.Sum("nope", 0, 10); err == nil {
			t.Errorf("%s: unknown attribute did not error on Sum", e.Label())
		}
		if _, _, _, err := e.MinMax("nope", 0, 10); err == nil {
			t.Errorf("%s: unknown attribute did not error on MinMax", e.Label())
		}
		if _, err := e.SelectRows("nope", 0, 10); err == nil {
			t.Errorf("%s: unknown attribute did not error on SelectRows", e.Label())
		}
	}
}

// sortedPaths counts the attributes currently answered by a sorted copy.
func sortedPaths(e *Executor) int {
	n := 0
	for _, a := range e.attrs {
		if _, ok := a.current().(*sortedPath); ok {
			n++
		}
	}
	return n
}

func TestOnlineExecutorSortsAfterEpoch(t *testing.T) {
	tbl, base := testTable(t, 1, 10_000, 1<<16)
	e := NewOnlineExecutor(tbl, 2, 5)
	defer e.Close()
	for q := 0; q < 5; q++ {
		if n, _ := e.Count("A", 0, 1000); n != column.CountRange(base[0], 0, 1000) {
			t.Fatal("pre-epoch count wrong")
		}
	}
	if sortedPaths(e) != 0 {
		t.Fatal("sorted before epoch ended")
	}
	if n, _ := e.Count("A", 0, 1000); n != column.CountRange(base[0], 0, 1000) {
		t.Fatal("epoch-crossing count wrong")
	}
	if n := sortedPaths(e); n != 1 {
		t.Fatalf("sorted %d columns after epoch, want 1 (table has 1)", n)
	}
}

func TestOfflinePrepareAll(t *testing.T) {
	tbl, _ := testTable(t, 3, 5_000, 1<<16)
	e := NewOfflineExecutor(tbl, 2)
	e.PrepareAll()
	if n := sortedPaths(e); n != 3 {
		t.Fatalf("PrepareAll sorted %d columns, want 3", n)
	}
}

func TestAdaptiveExecutorCracksLazily(t *testing.T) {
	tbl, _ := testTable(t, 2, 10_000, 1<<16)
	e := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	defer e.Close()
	if e.CrackerIfExists("A") != nil {
		t.Fatal("cracker exists before any query")
	}
	e.Count("A", 100, 200)
	if e.CrackerIfExists("A") == nil {
		t.Fatal("cracker missing after query")
	}
	if e.CrackerIfExists("B") != nil {
		t.Fatal("unqueried attribute got a cracker")
	}
	if e.TotalPieces() < 2 {
		t.Errorf("TotalPieces = %d after one range query", e.TotalPieces())
	}
}

func TestAdaptiveInsertMergesOnQuery(t *testing.T) {
	tbl, base := testTable(t, 1, 10_000, 1000)
	e := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	defer e.Close()
	e.Count("A", 0, 500) // create cracker
	for i := 0; i < 20; i++ {
		if err := e.Insert("A", 250); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Insert("nope", 1); err == nil {
		t.Error("insert into unknown attribute did not error")
	}
	got, _ := e.Count("A", 200, 300)
	want := column.CountRange(base[0], 200, 300) + 20
	if got != want {
		t.Fatalf("count after inserts = %d, want %d", got, want)
	}
}

func TestHolisticExecutorBackgroundRefinement(t *testing.T) {
	tbl, base := testTable(t, 2, 100_000, 1<<20)
	h := NewHolisticExecutor(tbl, HolisticConfig{
		Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 16, Seed: 4},
		L1Values: 256,
		Contexts: 2,
	})
	defer h.Close()
	// One query creates the index; idle time lets the daemon refine it.
	h.Count("A", 0, 1<<19)
	c := h.CrackerIfExists("A")
	deadline := time.After(2 * time.Second)
	for c.Pieces() < 20 {
		select {
		case <-deadline:
			t.Fatalf("daemon refined only %d pieces", c.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Queries remain correct throughout.
	rng := rand.New(rand.NewSource(10))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		got, _ := h.Count("A", lo, hi)
		if want := column.CountRange(base[0], lo, hi); got != want {
			t.Fatalf("query %d: got %d, want %d", q, got, want)
		}
	}
}

func TestHolisticAddPotential(t *testing.T) {
	tbl, _ := testTable(t, 2, 50_000, 1<<20)
	h := NewHolisticExecutor(tbl, HolisticConfig{
		Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 16, Seed: 5},
		L1Values: 256,
		Contexts: 2,
	})
	defer h.Close()
	if err := h.AddPotential("B"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddPotential("nope"); err == nil {
		t.Error("AddPotential on unknown attribute did not error")
	}
	c := h.CrackerIfExists("B")
	if c == nil {
		t.Fatal("potential index has no cracker column")
	}
	deadline := time.After(2 * time.Second)
	for c.Pieces() < 5 {
		select {
		case <-deadline:
			t.Fatalf("potential index not refined before queries: %d pieces", c.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestHolisticInsertsMergedByWorkers: workers bring an index up to date
// even once it is optimal. The inserts arrive only after the daemon has
// refined the index to optimal, so no worker picks it for refinement
// again, and no query touches the values they hold before they must be
// merged.
func TestHolisticInsertsMergedByWorkers(t *testing.T) {
	tbl, base := testTable(t, 1, 50_000, 1000)
	h := NewHolisticExecutor(tbl, HolisticConfig{
		Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 16, Seed: 6},
		L1Values: 128,
		Contexts: 2,
	})
	defer h.Close()
	h.Count("A", 0, 500)
	e := h.Daemon().Registry().Get("A")
	optimal := time.After(3 * time.Second)
	for e.State() != stats.Optimal {
		select {
		case <-optimal:
			t.Fatalf("daemon left the index %v after %d pieces", e.State(), e.Col.Pieces())
		case <-time.After(5 * time.Millisecond):
		}
	}
	for i := 0; i < 50; i++ {
		h.Insert("A", int64(i*17%1000))
	}
	pend := pending(h, "A")
	deadline := time.After(3 * time.Second)
	for pend.Len() > 0 {
		select {
		case <-deadline:
			t.Fatalf("workers left %d pending inserts", pend.Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	got, _ := h.Count("A", 0, 1000)
	if want := column.CountRange(base[0], 0, 1000) + 50; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// checkKeyOrderClusters asserts the WalkKeyOrder contract over a
// walk: clusters' value sets are disjoint and ascending, rows align
// with values, and the multiset of (value, row) pairs equals want.
func checkKeyOrderClusters(t *testing.T, e *Executor, attr string, want map[uint32]int64) {
	t.Helper()
	var prevMax int64
	first := true
	seen := map[uint32]int64{}
	ok, err := e.WalkKeyOrder(attr, func(vals []int64, rows []uint32) {
		if len(vals) == 0 || len(vals) != len(rows) {
			t.Fatalf("cluster shape %d vals / %d rows", len(vals), len(rows))
		}
		mn, mx := vals[0], vals[0]
		for i, v := range vals {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
			if _, dup := seen[rows[i]]; dup {
				t.Fatalf("row %d streamed twice", rows[i])
			}
			seen[rows[i]] = v
		}
		if !first && mn <= prevMax {
			t.Fatalf("cluster min %d not above previous cluster max %d", mn, prevMax)
		}
		first = false
		prevMax = mx
	})
	if err != nil || !ok {
		t.Fatalf("WalkKeyOrder = (%v, %v)", ok, err)
	}
	if len(seen) != len(want) {
		t.Fatalf("walk streamed %d rows, want %d", len(seen), len(want))
	}
	for r, v := range want {
		if seen[r] != v {
			t.Fatalf("row %d streamed value %d, want %d", r, seen[r], v)
		}
	}
}

// TestWalkKeyOrder covers the key-ordered access paths: sorted runs on
// the offline executor, cracker pieces on the adaptive one — including
// the pending-update merge the walk performs first.
func TestWalkKeyOrder(t *testing.T) {
	tbl, cols := testTable(t, 1, 4_000, 1<<10)
	attr := attrName(0)
	want := map[uint32]int64{}
	for i, v := range cols[0] {
		want[uint32(i)] = v
	}

	off := NewOfflineExecutor(tbl, 2)
	if span, ok := off.KeyOrderSpan(attr); !ok || span != 1 {
		t.Fatalf("offline KeyOrderSpan = (%v, %v)", span, ok)
	}
	checkKeyOrderClusters(t, off, attr, want)
	if _, ok := off.KeyOrderSpan("nope"); ok {
		t.Fatal("offline KeyOrderSpan ok for unknown attribute")
	}

	ad := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	if _, ok := ad.KeyOrderSpan(attr); ok {
		t.Fatal("adaptive KeyOrderSpan ok before any cracker exists")
	}
	if ok, err := ad.WalkKeyOrder(attr, nil); ok || err != nil {
		t.Fatalf("adaptive walk before cracker = (%v, %v), want (false, nil)", ok, err)
	}
	if _, err := ad.Count(attr, 100, 600); err != nil {
		t.Fatal(err)
	}
	if span, ok := ad.KeyOrderSpan(attr); !ok || span <= 0 {
		t.Fatalf("adaptive KeyOrderSpan = (%v, %v)", span, ok)
	}
	// Pending updates must be merged before the walk streams: insert,
	// delete and update, then check the logical state round-trips.
	if err := ad.Insert(attr, 77); err != nil {
		t.Fatal(err)
	}
	want[uint32(len(cols[0]))] = 77
	// Delete/Update target the lowest live row holding the value;
	// resolve the same row in the oracle map.
	lowestWith := func(v int64) uint32 {
		best, found := uint32(0), false
		for r, cur := range want {
			if cur == v && (!found || r < best) {
				best, found = r, true
			}
		}
		if !found {
			t.Fatalf("no live row holds %d", v)
		}
		return best
	}
	delVictim := cols[0][10]
	if err := ad.Delete(attr, delVictim); err != nil {
		t.Fatal(err)
	}
	delete(want, lowestWith(delVictim))
	updVictim := int64(-1)
	for _, v := range want {
		updVictim = v
		break
	}
	if err := ad.Update(attr, updVictim, 999); err != nil {
		t.Fatal(err)
	}
	want[lowestWith(updVictim)] = 999
	checkKeyOrderClusters(t, ad, attr, want)
	if n := pending(ad, attr).Len(); n != 0 {
		t.Fatalf("%d pending operations survived the walk's merge", n)
	}
}

func TestHolisticExecutorStorageBudget(t *testing.T) {
	// Budget for two columns of 10k values (80KB each): querying a third
	// attribute must evict the least frequently used index.
	tbl, _ := testTable(t, 3, 10_000, 1<<16)
	h := NewHolisticExecutor(tbl, HolisticConfig{
		Daemon: holistic.Config{
			Interval:      time.Hour, // daemon idle; this test is about admission
			StorageBudget: 2 * 10_000 * 8,
			Seed:          1,
		},
		L1Values: 256,
		Contexts: 2,
	})
	defer h.Close()
	h.Count(attrName(0), 0, 100)
	h.Count(attrName(1), 0, 100)
	h.Count(attrName(1), 0, 200) // attr 1 now more frequently used
	h.Count(attrName(2), 0, 100) // must evict attr 0 (LFU)
	reg := h.Daemon().Registry()
	if reg.Get(attrName(0)) != nil || h.CrackerIfExists(attrName(0)) != nil {
		t.Error("LFU index not evicted under storage budget")
	}
	if reg.Get(attrName(1)) == nil || reg.Get(attrName(2)) == nil {
		t.Error("wrong index evicted")
	}
	// The evicted attribute is still queryable: its index gets rebuilt.
	if _, err := h.Count(attrName(0), 0, 100); err != nil {
		t.Fatal(err)
	}
	if h.CrackerIfExists(attrName(0)) == nil {
		t.Error("evicted index not rebuilt by the next touch")
	}
}

// TestStorageBudgetEvictionFreesIndex: the index the storage budget
// evicts is freed — the live cracker columns stay within the budget —
// and the attribute's next touch rebuilds it from the base column and
// replays its overlay, so inserts, deletes and updates written before
// the eviction (merged into the old column or still pending when it
// came) and after it all stay in the answers. The last phase races
// readers, whose first touches keep evicting each other's indexes, with
// a writer: a read still walking an evicted path must merge into the
// queue that path was built with, or the rebuilt index loses writes.
func TestStorageBudgetEvictionFreesIndex(t *testing.T) {
	const n, domain = 10_000, 1 << 16
	tbl, bases := testTable(t, 3, n, domain)
	names := []string{attrName(0), attrName(1), attrName(2)}
	// Room for two of the three 80 000-byte crackers and the slack
	// inserts open in them, never for three.
	budget := int64(2*n*8 + 4096)
	h := NewHolisticExecutor(tbl, HolisticConfig{
		Daemon:   holistic.Config{Interval: time.Hour, StorageBudget: budget, Seed: 1},
		L1Values: 256,
		Contexts: 2,
	})
	defer h.Close()
	m := model.New(names, bases...)
	rng := rand.New(rand.NewSource(7))

	within := func(when string) {
		t.Helper()
		var live int64
		for _, a := range names {
			if c := h.CrackerIfExists(a); c != nil {
				live += c.SizeBytes()
			}
		}
		if live > budget {
			t.Fatalf("%s: live cracker columns hold %d bytes, budget %d", when, live, budget)
		}
	}
	write := func(attr string, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if i%3 == 0 {
				v := rng.Int63n(domain)
				if err := h.Insert(attr, v); err != nil {
					t.Fatal(err)
				}
				m.Insert(attr, v)
				continue
			}
			v, ok := m.Get(attr, uint32(rng.Intn(n+k)))
			if !ok {
				continue
			}
			var err, want error
			if i%3 == 1 {
				err, want = h.Delete(attr, v), m.Delete(attr, v)
			} else {
				nv := rng.Int63n(domain)
				err, want = h.Update(attr, v, nv), m.Update(attr, v, nv)
			}
			if err != nil || want != nil {
				t.Fatalf("write %d to %s: %v (model: %v)", i, attr, err, want)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for _, a := range names {
			for q := 0; q < 20; q++ {
				lo := rng.Int63n(domain)
				hi := lo + rng.Int63n(domain/4) + 1
				preds := []model.Pred{{Attr: a, Lo: lo, Hi: hi}}
				if got, err := h.Count(a, lo, hi); err != nil || got != m.Count(preds) {
					t.Fatalf("%s: Count(%s, %d, %d) = %d, %v; model %d", when, a, lo, hi, got, err, m.Count(preds))
				}
				if got, err := h.Sum(a, lo, hi); err != nil || got != m.Sum(a, preds) {
					t.Fatalf("%s: Sum(%s, %d, %d) = %d, %v; model %d", when, a, lo, hi, got, err, m.Sum(a, preds))
				}
			}
		}
	}

	h.Count(names[0], 0, 100)
	for i := 0; i < 10; i++ {
		h.Count(names[1], int64(i), 200)
	}
	write(names[0], 90)
	h.Count(names[0], 0, domain/4) // merges the pending writes in range, leaves the rest
	write(names[0], 90)
	h.Count(names[2], 0, 100) // A is least frequently used: evicted
	within("after the eviction")
	if h.CrackerIfExists(names[0]) != nil {
		t.Fatal("the evicted index still answers queries")
	}
	write(names[0], 90) // rebuilds A as a potential index, evicting C
	within("after the rebuild")
	check("after the rebuild")
	within("after the checks")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := r.Int63n(domain)
				if _, err := h.Count(names[r.Intn(len(names))], lo, lo+r.Int63n(domain/4)+1); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(c))
	}
	for i := 0; i < 6; i++ {
		write(names[i%len(names)], 60)
	}
	close(stop)
	wg.Wait()
	within("after the race")
	check("after the race")
}

// TestStorageBudgetCountsWhatIsStored: the budget is charged what an
// index keeps. Three cracker columns with rowids fit the budget that two
// took while a rowid cost four bytes beside the value — as it still does
// for a column whose values span more than one packing window. A column
// an insert grew is charged the slack the insert opened: counted by
// length, two columns with 100 inserts each and a third would fill the
// budget exactly.
func TestStorageBudgetCountsWhatIsStored(t *testing.T) {
	const n = 10_000
	for _, tc := range []struct {
		name    string
		top     int64 // overwrites one value of every column
		inserts int   // merged into each of the first two columns
		kept    int
	}{
		{"rowids in the value words", 1 << 15, 0, 3},
		{"rowids in an array", 1 << 40, 0, 2},
		{"inserted into", 1 << 15, 100, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable("R")
			for a := 0; a < 3; a++ {
				base := workload.UniformColumn(n, 1<<16, int64(100+a))
				base[n/2] = tc.top
				tbl.MustAddColumn(column.New(attrName(a), base))
			}
			budget := int64(2*n*12 + 2*8*tc.inserts)
			h := NewHolisticExecutor(tbl, HolisticConfig{
				Daemon: holistic.Config{
					Interval:      time.Hour, // daemon idle; this test is about admission
					StorageBudget: budget,
					Seed:          1,
				},
				Cracking: cracking.Config{},
				L1Values: 256,
				Contexts: 2,
			})
			defer h.Close()
			for a := 0; a < 3; a++ {
				if _, err := h.Count(attrName(a), 0, 100); err != nil {
					t.Fatal(err)
				}
				if a == 2 || tc.inserts == 0 {
					continue
				}
				for i := range tc.inserts {
					if err := h.Insert(attrName(a), int64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := h.Count(attrName(a), 0, 100); err != nil { // merges them
					t.Fatal(err)
				}
				if p := pending(h, attrName(a)).Len(); p != 0 {
					t.Fatalf("%d inserts left pending", p)
				}
			}
			reg, kept := h.Daemon().Registry(), 0
			for a := 0; a < 3; a++ {
				if reg.Get(attrName(a)) != nil {
					kept++
				}
			}
			if kept != tc.kept {
				t.Fatalf("a budget of %d bytes keeps %d of three %d-tuple indexes, want %d", budget, kept, n, tc.kept)
			}
		})
	}
}

// countConcurrently answers qs through e.Count from clients goroutines,
// client c taking every clients-th query from the c-th on, and returns the
// counts in sequence order.
func countConcurrently(t *testing.T, e *Executor, qs []workload.Query, clients int) []int {
	t.Helper()
	got := make([]int, len(qs))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(qs); i += clients {
				n, err := e.Count(attrName(qs[i].Attr), qs[i].Lo, qs[i].Hi)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				got[i] = n
			}
		}()
	}
	wg.Wait()
	return got
}

func TestCCGIExecutorConcurrentClients(t *testing.T) {
	tbl, bases := testTable(t, 2, 20_000, 1<<16)
	e := NewCCGIExecutor(tbl, 2, 8, cracking.Config{})
	defer e.Close()
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 80, Domain: 1 << 16, Attrs: 2, Seed: 17,
	})
	got := countConcurrently(t, e, qs, 4)
	for i, q := range qs {
		if want := column.CountRange(bases[q.Attr], q.Lo, q.Hi); got[i] != want {
			t.Fatalf("query %d: got %d, want %d", i, got[i], want)
		}
	}
}

func TestOnlineExecutorConcurrentEpochCrossing(t *testing.T) {
	// Many clients cross the epoch simultaneously; the sort must happen
	// exactly once and answers stay correct throughout.
	tbl, bases := testTable(t, 2, 10_000, 1<<16)
	e := NewOnlineExecutor(tbl, 2, 10)
	defer e.Close()
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 100, Domain: 1 << 16, Attrs: 2, Seed: 18,
	})
	got := countConcurrently(t, e, qs, 4)
	for i, q := range qs {
		if want := column.CountRange(bases[q.Attr], q.Lo, q.Hi); got[i] != want {
			t.Fatalf("query %d: got %d, want %d", i, got[i], want)
		}
	}
	if n := sortedPaths(e); n != 2 {
		t.Fatalf("sorted %d columns, want 2", n)
	}
}

// TestAdaptiveDeleteUpdateAndView covers the row-level overlay behind
// conjunctive probes: deletes and updates are visible through View (and
// through count queries once merged), and the overlay stays consistent
// with the cracker's value multiset.
func TestAdaptiveDeleteUpdateAndView(t *testing.T) {
	base := []int64{10, 20, 30, 40, 50}
	tab := NewTable("t")
	tab.MustAddColumn(column.New("a", base))
	e := NewAdaptiveExecutor(tab, cracking.Config{}, "")
	defer e.Close()

	if err := e.Insert("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("a", 20); err != nil {
		t.Fatal(err)
	}
	if err := e.Update("a", 40, 45); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("a", 999); err == nil {
		t.Fatal("delete of a missing value did not error")
	}
	if err := e.Update("a", 999, 1); err == nil {
		t.Fatal("update of a missing value did not error")
	}

	w, err := e.View("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.At(1); ok {
		t.Error("deleted row 1 still has a value")
	}
	if v, ok := w.At(3); !ok || v != 45 {
		t.Errorf("updated row 3 = (%d,%v), want (45,true)", v, ok)
	}
	if v, ok := w.At(5); !ok || v != 60 {
		t.Errorf("appended row 5 = (%d,%v), want (60,true)", v, ok)
	}

	// Counts through the cracker agree with the logical multiset
	// {10, 30, 45, 50, 60}.
	n, err := e.Count("a", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("count after updates = %d, want 5", n)
	}
	if n, _ = e.Count("a", 20, 21); n != 0 {
		t.Fatalf("deleted value still counted: %d", n)
	}
	if n, _ = e.Count("a", 45, 46); n != 1 {
		t.Fatalf("updated value not counted: %d", n)
	}

	// The view snapshot is isolated from later mutations.
	if err := e.Delete("a", 30); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.At(2); !ok {
		t.Error("old view snapshot observed a later delete")
	}
}

// TestEstimateCount checks the planner's cardinality probes: sorted
// executors answer exactly once sorted, crackers exactly on boundary
// hits, and everyone reports ok=false before any index exists. The work a
// select would do first is 0 on a bracketed range and on a sorted copy,
// and the pieces an inexact bound falls inside on a cracker.
func TestEstimateCount(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	tab := NewTable("t")
	tab.MustAddColumn(column.New("a", vals))

	off := NewOfflineExecutor(tab, 1)
	if _, ok := off.EstimateCount("a", 100, 200); ok {
		t.Error("offline estimated before sorting")
	}
	off.PrepareAll()
	if est, ok := off.EstimateCount("a", 100, 200); !ok || est.Rows != 100 || est.Work != 0 {
		t.Errorf("offline estimate = (%+v, %v), want 100 exact rows, no work", est, ok)
	}

	ad := NewAdaptiveExecutor(tab, cracking.Config{}, "")
	defer ad.Close()
	if _, ok := ad.EstimateCount("a", 100, 200); ok {
		t.Error("adaptive estimated before any cracker exists")
	}
	if _, err := ad.Count("a", 100, 200); err != nil {
		t.Fatal(err)
	}
	if est, ok := ad.EstimateCount("a", 100, 200); !ok || est.Rows != 100 || est.Work != 0 {
		t.Errorf("adaptive exact estimate = (%+v, %v), want 100 exact rows, no work", est, ok)
	}
	// Unseen bounds: uniform fallback, inexact but sane; the cracks at 0
	// and 500 would partition the pieces below 100 and from 200 on.
	est, ok := ad.EstimateCount("a", 0, 500)
	if !ok || est.Work != 100+800 {
		t.Fatalf("adaptive fallback = (%+v, %v), want inexact ok with work 900", est, ok)
	}
	if est.Rows < 250 || est.Rows > 750 {
		t.Errorf("uniform estimate %v implausible for 500/1000", est.Rows)
	}
}

// TestSelectBitmapAgreesWithSelectRows is the bitmap-path differential
// test: every mode's SelectBitmap must mark exactly the rows its
// SelectRows materializes, on random range predicates.
func TestSelectBitmapAgreesWithSelectRows(t *testing.T) {
	const domain = 1 << 16
	tbl, bases := testTable(t, 2, 20_000, domain)
	execs := allExecutors(t, tbl)
	defer func() {
		for _, e := range execs {
			e.Close()
		}
	}()
	rng := rand.New(rand.NewSource(33))
	bm := column.NewBitmap(0)
	for q := 0; q < 40; q++ {
		a := rng.Intn(2)
		lo := rng.Int63n(domain)
		hi := lo + rng.Int63n(domain-lo) + 1
		wantRows := column.ScanRange(bases[a], lo, hi) // ascending base positions
		for _, e := range execs {
			if err := e.SelectBitmap(attrName(a), lo, hi, bm); err != nil {
				t.Fatalf("%s: SelectBitmap: %v", e.Label(), err)
			}
			if got := bm.Count(); got != len(wantRows) {
				t.Fatalf("%s query %d [%d,%d): bitmap count %d, want %d", e.Label(), q, lo, hi, got, len(wantRows))
			}
			got := bm.AppendPositions(nil)
			for i := range got {
				if got[i] != wantRows[i] {
					t.Fatalf("%s query %d: bitmap pos[%d] = %d, want %d", e.Label(), q, i, got[i], wantRows[i])
				}
			}
		}
	}
}

// TestSelectBitmapCoversPendingInserts: after inserts, the adaptive
// bitmap universe extends past the base rows and marks appended rows
// once the merge pulls them in.
func TestSelectBitmapCoversPendingInserts(t *testing.T) {
	tbl, bases := testTable(t, 1, 5_000, 1<<14)
	ad := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	defer ad.Close()
	if _, err := ad.SelectRows("A", 0, 1<<14); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ad.Insert("A", int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	bm := column.NewBitmap(0)
	if err := ad.SelectBitmap("A", 100, 110, bm); err != nil {
		t.Fatal(err)
	}
	if bm.Len() != len(bases[0])+10 {
		t.Fatalf("bitmap universe %d, want %d", bm.Len(), len(bases[0])+10)
	}
	want := column.CountRange(bases[0], 100, 110) + 10
	if got := bm.Count(); got != want {
		t.Fatalf("bitmap count %d, want %d", got, want)
	}
	for i := 0; i < 10; i++ {
		if !bm.Test(uint32(len(bases[0]) + i)) {
			t.Fatalf("appended row %d not marked", len(bases[0])+i)
		}
	}
}

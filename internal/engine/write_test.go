package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/durable"
	"holistic/internal/holistic"
	"holistic/internal/obs/observer"
	"holistic/internal/updates"
)

// shadowAttr is one attribute's logical rows kept by the test: what the
// executor's overlay must equal after every write.
type shadowAttr struct {
	vals []int64
	live []bool
}

func newShadow(base []int64) *shadowAttr {
	s := &shadowAttr{vals: slices.Clone(base), live: make([]bool, len(base))}
	for i := range s.live {
		s.live[i] = true
	}
	return s
}

func (s *shadowAttr) count(lo, hi int64) (n int) {
	for i, v := range s.vals {
		if s.live[i] && v >= lo && v < hi {
			n++
		}
	}
	return n
}

func (s *shadowAttr) rows(lo, hi int64) (rows []uint32) {
	for i, v := range s.vals {
		if s.live[i] && v >= lo && v < hi {
			rows = append(rows, uint32(i))
		}
	}
	return rows
}

// scanForRow resolves the lowest row id currently holding v by scanning
// the attribute front to back through its overlay: the write path before
// victims came out of the index, kept as the oracle the index lookup is
// held against.
func (e *Executor) scanForRow(attr string, base []int64, v int64) (uint32, bool) {
	a := e.attrs[attr]
	a.mu.Lock()
	defer a.mu.Unlock()
	w := column.View{Base: base, Tail: a.tail, Deleted: a.deleted, Updated: a.updated}
	for row := uint32(0); int(row) < w.Extent(); row++ {
		if cur, ok := w.At(row); ok && cur == v {
			return row, true
		}
	}
	return 0, false
}

// pending returns the queue the next write to attr goes to.
func pending(e *Executor, attr string) *updates.Pending {
	a := e.attrs[attr]
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pend
}

// writeSession drives one executor attribute and holds every Delete and
// Update against the old front-to-back scan (scanForRow), which picks the
// row first; the write must then leave the overlay exactly as removing or
// rewriting that row does.
type writeSession struct {
	t    *testing.T
	e    *Executor
	attr string
	sh   *shadowAttr
}

func (ws *writeSession) base() []int64 { return ws.e.table.Column(ws.attr).Values() }

// write applies one Delete (newV nil) or Update through the executor.
func (ws *writeSession) write(v int64, newV *int64) {
	ws.t.Helper()
	want, found := ws.e.scanForRow(ws.attr, ws.base(), v)
	op, err := "delete", error(nil)
	if newV == nil {
		err = ws.e.Delete(ws.attr, v)
	} else {
		op, err = "update", ws.e.Update(ws.attr, v, *newV)
	}
	if !found {
		if text := fmt.Sprintf("engine: %s %s = %d: no such value", op, ws.attr, v); err == nil || err.Error() != text {
			ws.t.Fatalf("%s of a missing value: error %v, want %q", op, err, text)
		}
		return
	}
	if err != nil {
		ws.t.Fatalf("%s %d: %v", op, v, err)
	}
	if newV == nil {
		ws.sh.live[want] = false
	} else {
		ws.sh.vals[want] = *newV
	}
	ws.checkView(fmt.Sprintf("%s %d (scan picks row %d)", op, v, want))
}

func (ws *writeSession) insert(v int64) {
	ws.t.Helper()
	if err := ws.e.Insert(ws.attr, v); err != nil {
		ws.t.Fatal(err)
	}
	ws.sh.vals, ws.sh.live = append(ws.sh.vals, v), append(ws.sh.live, true)
}

func (ws *writeSession) checkView(after string) {
	ws.t.Helper()
	w, err := ws.e.View(ws.attr)
	if err != nil {
		ws.t.Fatal(err)
	}
	if w.Extent() != len(ws.sh.vals) {
		ws.t.Fatalf("after %s: %d rows, want %d", after, w.Extent(), len(ws.sh.vals))
	}
	for row, v := range ws.sh.vals {
		if got, ok := w.At(uint32(row)); ok != ws.sh.live[row] || (ok && got != v) {
			ws.t.Fatalf("after %s: row %d = (%d, %v), want (%d, %v)", after, row, got, ok, v, ws.sh.live[row])
		}
	}
}

func (ws *writeSession) read(lo, hi int64) {
	ws.t.Helper()
	n, err := ws.e.Count(ws.attr, lo, hi)
	if err != nil {
		ws.t.Fatal(err)
	}
	if want := ws.sh.count(lo, hi); n != want {
		ws.t.Fatalf("count [%d, %d) = %d, want %d", lo, hi, n, want)
	}
	rows, err := ws.e.SelectRows(ws.attr, lo, hi)
	if err != nil {
		ws.t.Fatal(err)
	}
	slices.Sort(rows)
	if want := ws.sh.rows(lo, hi); !slices.Equal(rows, want) {
		ws.t.Fatalf("rows [%d, %d) = %v, want %v", lo, hi, rows, want)
	}
}

// run plays n seeded operations whose values come from pool, so that
// duplicates, re-inserted values and misses all occur.
func (ws *writeSession) run(seed int64, n int, pool []int64) {
	ws.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func() int64 { return pool[rng.Intn(len(pool))] }
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 30:
			ws.insert(pick())
		case r < 55:
			ws.write(pick(), nil)
		case r < 80:
			newV := pick()
			ws.write(pick(), &newV)
		default:
			lo, hi := pick(), pick()
			if lo > hi {
				lo, hi = hi, lo
			}
			ws.read(lo, hi+1)
		}
	}
	ws.read(math.MinInt64, math.MaxInt64)
}

func seq(lo, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

func drawn(seed int64, n int, pool []int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// writeModes builds the three updatable executors over one table.
var writeModes = []struct {
	name string
	make func(*Table, cracking.Config) *Executor
}{
	{"adaptive", func(t *Table, cfg cracking.Config) *Executor { return NewAdaptiveExecutor(t, cfg, "") }},
	{"stochastic", func(t *Table, cfg cracking.Config) *Executor {
		cfg.Stochastic = true
		return NewAdaptiveExecutor(t, cfg, "stochastic")
	}},
	{"holistic", func(t *Table, cfg cracking.Config) *Executor {
		return NewHolisticExecutor(t, HolisticConfig{
			Cracking: cfg,
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 8, Seed: 3},
			L1Values: 32,
			Contexts: 2,
		})
	}},
}

// TestWriteVictimMatchesScan: on every updatable mode and every layout a
// cracker column can have, a seeded session of interleaved inserts,
// deletes, updates and reads picks, write by write, the row the old scan
// picks.
func TestWriteVictimMatchesScan(t *testing.T) {
	small := seq(0, 48)
	layouts := []struct {
		name   string
		pool   []int64
		base   []int64
		packed [2]bool // before and after the session
	}{
		{name: "packed", pool: small, base: drawn(1, 3000, small), packed: [2]bool{true, true}},
		{name: "wide", pool: append([]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}, small...),
			base: append([]int64{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64}, drawn(2, 3000, small)...)},
		{name: "widens", pool: append([]int64{1 << 40, -(1 << 40)}, small...), base: drawn(3, 3000, small), packed: [2]bool{true, false}},
	}
	for _, m := range writeModes {
		for _, l := range layouts {
			t.Run(m.name+"/"+l.name, func(t *testing.T) {
				tbl := NewTable("R")
				tbl.MustAddColumn(column.New("A", l.base))
				e := m.make(tbl, cracking.Config{Seed: 7})
				defer e.Close()
				ws := &writeSession{t: t, e: e, attr: "A", sh: newShadow(l.base)}
				ws.read(8, 40)
				// Rowids in the value words keep a tuple under the 12 bytes
				// it takes beside a rowid array, insert slack included.
				isPacked := func() bool {
					c := e.CrackerIfExists("A")
					return c.SizeBytes() < 12*int64(c.Len())
				}
				if got := isPacked(); got != l.packed[0] {
					t.Fatalf("packed before the session = %v, want %v", got, l.packed[0])
				}
				ws.run(11, 1500, l.pool)
				if got := isPacked(); got != l.packed[1] {
					t.Fatalf("packed after the session = %v, want %v", got, l.packed[1])
				}
				if err := e.CrackerIfExists("A").CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWriteVictimCases names the cases a lookup through a lazily merged
// index can get wrong, one by one, with no read in between to merge
// anything for it.
func TestWriteVictimCases(t *testing.T) {
	base := []int64{5, 9, 5, 7, 9, 5, math.MinInt64, math.MaxInt64, math.MaxInt64}
	tbl := NewTable("R")
	tbl.MustAddColumn(column.New("A", base))
	ob := observer.New(observer.Config{})
	e := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	e.SetObserver(ob)
	defer e.Close()
	ws := &writeSession{t: t, e: e, attr: "A", sh: newShadow(base)}
	val := func(v int64) *int64 { return &v }

	// The first write builds the index; no query ever drove it.
	ws.write(7, nil)
	if e.CrackerIfExists("A") == nil || ob.Exec.CrackerBuilds.Load() != 0 {
		t.Fatalf("a write's cracker build counts as a query's: builds = %d", ob.Exec.CrackerBuilds.Load())
	}
	// Present only in the tail, as an unmerged insert.
	ws.insert(100)
	ws.write(100, nil)
	// The lowest holder is tombstoned by a delete that is still pending.
	ws.write(5, nil)
	ws.write(5, val(6))
	ws.write(5, nil)
	ws.write(5, nil) // none left
	// Reachable only as an update's new value; then as a re-update of it.
	ws.write(9, val(300))
	ws.write(300, val(301))
	ws.write(301, nil)
	ws.write(300, nil) // gone with the update
	// The domain's ends, duplicated and not.
	ws.write(math.MaxInt64, nil)
	ws.write(math.MaxInt64, val(math.MinInt64))
	ws.write(math.MaxInt64, nil) // none left
	ws.write(math.MinInt64, nil)
	ws.write(math.MinInt64, nil)
	ws.write(math.MinInt64, val(0)) // none left
	ws.read(math.MinInt64, math.MaxInt64)

	// The writes merged what they needed merged themselves, and it was
	// counted as a read's merges are.
	if ob.Exec.MergedUpdates.Load() == 0 {
		t.Error("write-triggered merges were not counted in MergedUpdates")
	}
}

// TestWriteVictimNeverReorganizes: a Delete or Update whose value has no
// pending operation leaves the column's pieces as they were, and merges
// nothing.
func TestWriteVictimNeverReorganizes(t *testing.T) {
	pool := seq(0, 1<<12)
	base := drawn(5, 1<<15, pool)
	tbl := NewTable("R")
	tbl.MustAddColumn(column.New("A", base))
	ob := observer.New(observer.Config{})
	e := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	e.SetObserver(ob)
	defer e.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 64; i++ {
		lo := rng.Int63n(1 << 12)
		if _, err := e.Count("A", lo, lo+1+rng.Int63n(1<<12-lo)); err != nil {
			t.Fatal(err)
		}
	}
	c := e.CrackerIfExists("A")
	pieces, merged := c.PieceBounds(), ob.Exec.MergedUpdates.Load()
	for i := 0; i < 200; i++ {
		v := base[rng.Intn(len(base))]
		var err error
		if i%2 == 0 {
			err = e.Delete("A", v)
		} else {
			err = e.Update("A", v, int64(1<<12+i)) // a value no later write names
		}
		if err != nil && i < 8 {
			t.Fatal(err) // later ones may name a value already consumed
		}
		after := c.PieceBounds()
		if len(after) != len(pieces) {
			t.Fatalf("write %d changed the piece count %d -> %d", i, len(pieces), len(after))
		}
		for j := range after {
			if after[j].LoKey != pieces[j].LoKey {
				t.Fatalf("write %d moved boundary %d: key %d -> %d", i, j, pieces[j].LoKey, after[j].LoKey)
			}
		}
	}
	// Only re-deleting a value merges its own earlier delete; nothing else
	// was pending on any victim.
	if got := ob.Exec.MergedUpdates.Load() - merged; got > 200 {
		t.Errorf("writes merged %d operations", got)
	}
}

// TestWriteVictimAfterRestore: a session snapshotted mid-way and recovered
// — with its cracker state, and without it (the replay path recovery
// takes for a dropped index) — picks the same rows for the rest of the
// session as the executor that never stopped.
func TestWriteVictimAfterRestore(t *testing.T) {
	pool := seq(0, 32)
	base := drawn(8, 2000, pool)
	tbl := NewTable("R")
	tbl.MustAddColumn(column.New("A", base))
	cfg := cracking.Config{Seed: 9}
	e := NewAdaptiveExecutor(tbl, cfg, "")
	defer e.Close()
	ws := &writeSession{t: t, e: e, attr: "A", sh: newShadow(base)}
	ws.read(4, 20)
	ws.run(21, 600, pool)
	fs := durable.NewFaultFS()
	cols, indexes := e.ExportDurable()
	if _, err := durable.WriteSnapshot(fs, &durable.Manifest{Generation: 1}, cols, indexes); err != nil {
		t.Fatal(err)
	}

	ends := []*shadowAttr{ws.sh}
	for _, withState := range []bool{true, false} {
		t.Run(fmt.Sprintf("state=%v", withState), func(t *testing.T) {
			rec, err := durable.Recover(fs)
			if err != nil || len(rec.Indexes) != 1 {
				t.Fatalf("recovered %d index states, %v", len(rec.Indexes), err)
			}
			rtbl := NewTable("R")
			rtbl.MustAddColumn(column.New("A", rec.Columns[0].Base))
			r := NewAdaptiveExecutor(rtbl, cfg, "")
			defer r.Close()
			st := rec.Indexes
			if !withState {
				st = nil
			}
			if restored, dropped := r.RestoreDurable(rec.Columns, st); restored != len(st) || dropped != 0 {
				t.Fatalf("restored %d, dropped %d", restored, dropped)
			}
			sh := &shadowAttr{vals: slices.Clone(ws.sh.vals), live: slices.Clone(ws.sh.live)}
			rs := &writeSession{t: t, e: r, attr: "A", sh: sh}
			rs.checkView("restore")
			rs.run(22, 600, pool)
			ends = append(ends, sh)
		})
	}
	ws.run(22, 600, pool)
	for i, sh := range ends[1:] {
		if !slices.Equal(sh.live, ws.sh.live) {
			t.Errorf("restored executor %d ends with other rows deleted than the original", i)
		}
		for row, v := range sh.vals {
			if sh.live[row] && v != ws.sh.vals[row] {
				t.Errorf("restored executor %d: row %d = %d, original %d", i, row, v, ws.sh.vals[row])
			}
		}
	}
}

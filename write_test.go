package holistic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/durable"
	"holistic/internal/model"
)

// applyModel plays op on the model and returns the error text the store
// must give when the value is in no row: the victim rule is the
// front-to-back scan the write path used to run — "the lowest row id
// currently holding v".
func (op scriptOp) applyModel(m *model.Table) (missing string) {
	var err error
	switch op.kind {
	case 'i':
		err = m.Insert(op.attr, op.a)
	case 'd':
		err = m.Delete(op.attr, op.a)
	default:
		err = m.Update(op.attr, op.a, op.b)
	}
	if err == nil {
		return ""
	}
	return fmt.Sprintf("engine: %s %s = %d: no such value", map[byte]string{'d': "delete", 'u': "update"}[op.kind], op.attr, op.a)
}

// checkAttr compares what the store answers for attr with the model:
// the counts and rows of a few ranges (the rows name the row every write
// picked).
func checkAttr(t *testing.T, tag string, s *Store, attr string, m *model.Table, rng *rand.Rand, pool []int64) {
	t.Helper()
	ranges := [][2]int64{{math.MinInt64, math.MaxInt64}}
	for i := 0; i < 3; i++ {
		lo, hi := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		ranges = append(ranges, [2]int64{min(lo, hi), max(lo, hi)}, [2]int64{lo, lo + 1})
	}
	for _, r := range ranges {
		want := m.Rows([]model.Pred{{Attr: attr, Lo: r[0], Hi: r[1]}})
		n, err := s.CountRange(attr, r[0], r[1])
		if err != nil || n != len(want) {
			t.Fatalf("%s: CountRange(%s, %d, %d) = %d, %v; want %d", tag, attr, r[0], r[1], n, err, len(want))
		}
		rows, err := s.SelectRows(attr, r[0], r[1])
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		slices.Sort(rows)
		if !slices.Equal(rows, want) {
			t.Fatalf("%s: SelectRows(%s, %d, %d) = %v, want %v", tag, attr, r[0], r[1], rows, want)
		}
	}
}

// TestWriteVictimStoreSession: through the Store's own doors, in memory
// and through the WAL with crashes, checkpoints and replay in between, a
// seeded session of writes leaves in every row what the old scan rule
// says it must — on a column that packs and on one that holds MinInt64
// and MaxInt64, on every updatable mode.
func TestWriteVictimStoreSession(t *testing.T) {
	narrow := make([]int64, 40)
	for i := range narrow {
		narrow[i] = int64(i)
	}
	wide := append([]int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 1 << 40}, narrow[:20]...)
	pools := map[string][]int64{"a": narrow, "b": wide}
	draw := func(rng *rand.Rand, pool []int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	type variant struct {
		mode    Mode
		durable bool
	}
	var variants []variant
	for _, m := range []Mode{ModeAdaptive, ModeStochastic, ModeHolistic} {
		variants = append(variants, variant{m, false}, variant{m, true})
	}
	for _, v := range variants {
		t.Run(fmt.Sprintf("%v/durable=%v", v.mode, v.durable), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			cfg := durCfg(v.mode)
			fs := durable.NewFaultFS()
			open := func() *Store {
				if !v.durable {
					return NewStore(cfg)
				}
				s, err := openStoreFS(fs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			defer func() { s.Close() }()
			var bases [][]int64
			for _, attr := range []string{"a", "b"} {
				bases = append(bases, draw(rng, pools[attr], 400))
				if err := s.AddIntColumn(attr, bases[len(bases)-1]); err != nil {
					t.Fatal(err)
				}
			}
			m := model.New([]string{"a", "b"}, bases...)
			for step := 0; step < 900; step++ {
				attr := []string{"a", "b"}[rng.Intn(2)]
				pool := pools[attr]
				pick := func() int64 { return pool[rng.Intn(len(pool))] }
				tag := fmt.Sprintf("step %d", step)
				switch r := rng.Intn(100); {
				case r < 75:
					op := scriptOp{kind: "iddduuu"[rng.Intn(7)], attr: attr, a: pick(), b: pick()}
					missing, err := op.applyModel(m), op.apply(s)
					if (missing == "") != (err == nil) || err != nil && err.Error() != missing {
						t.Fatalf("%s: %c %s %d: error %v, want %q", tag, op.kind, attr, op.a, err, missing)
					}
				case r < 95:
					checkAttr(t, tag, s, attr, m, rng, pool)
				case r < 97 && v.durable:
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case v.durable:
					// The process dies — nothing it still tries to write
					// lands — and every acknowledged write replays.
					fs.KillAt(1, false)
					s.discard()
					fs.Crash()
					s = open()
					for _, attr := range []string{"a", "b"} {
						checkAttr(t, tag+" after replay", s, attr, m, rng, pools[attr])
					}
				}
			}
			for _, attr := range []string{"a", "b"} {
				checkAttr(t, "end", s, attr, m, rng, pools[attr])
			}
		})
	}
}

// TestConcurrentWritesDeleteDistinctRows: two writers that both delete a
// value stored in two rows take one row each — resolving a victim and
// tombstoning it is one step against other writers — and a third delete
// finds none.
func TestConcurrentWritesDeleteDistinctRows(t *testing.T) {
	const values = 4000
	base := make([]int64, 0, 2*values)
	for v := int64(0); v < values; v++ {
		base = append(base, v)
	}
	for v := int64(values) - 1; v >= 0; v-- {
		base = append(base, v)
	}
	rowIDs := make([]int64, len(base))
	for i := range rowIDs {
		rowIDs[i] = int64(i)
	}
	for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
		s := NewStore(storeConfig(mode))
		if err := s.AddIntColumn("a", base); err != nil {
			t.Fatal(err)
		}
		if err := s.AddIntColumn("row", rowIDs); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CountRange("a", values/4, values/2); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2*values)
		start := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for v := int64(0); v < values; v++ {
					if err := s.Delete("a", v); err != nil {
						errs <- err
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%v: a delete of a value stored twice failed: %v", mode, err)
		}
		// The index (SelectRows) and the row-level overlay (the values a
		// conjunction on another attribute fetches) must both be empty: a
		// row picked twice is one tombstone short in the overlay.
		rows, err := s.SelectRows("a", 0, values)
		if err != nil || len(rows) != 0 {
			t.Errorf("%v: the index holds %d rows after deleting every value twice (%v)", mode, len(rows), err)
		}
		left, err := s.Query().Where("row", 0, 2*values).Values("a")
		if err != nil || len(left[0]) != 0 {
			t.Errorf("%v: %d rows still hold a value (%v): two deletes took the same row", mode, len(left[0]), err)
		}
		if err := s.Delete("a", 7); err == nil {
			t.Errorf("%v: a third delete of a value stored twice succeeded", mode)
		}
		s.Close()
	}
}

// TestConcurrentWritesDifferential runs query goroutines against one
// writer, explicit checkpoints and the daemon on a durable holistic
// store, and holds every answer against a versioned model of the data:
// the writes are generated up front, so the multiset after each is known,
// and a read that started after write s finished and ended before write e
// began must answer as some state in between — exactly the state after s
// when s == e. The store then closes, reopens and must hold the last
// version.
func TestConcurrentWritesDifferential(t *testing.T) {
	const (
		rows    = 4000
		domain  = 256
		writes  = 1500
		readers = 3
	)
	rng := rand.New(rand.NewSource(41))
	base := make([]int64, rows)
	for i := range base {
		base[i] = rng.Int63n(domain)
	}
	// Generate the writes against the model so each names a value some
	// row holds, and record for every version the count and sum per value.
	m := model.New([]string{"a"}, base)
	ops := make([]scriptOp, writes)
	type hist struct{ count [domain]int32 }
	versions := make([]hist, writes+1)
	for _, v := range base {
		versions[0].count[v]++
	}
	for i := range ops {
		held := func() int64 {
			rows := m.Rows(nil, "a")
			v, _ := m.Get("a", rows[rng.Intn(len(rows))])
			return v
		}
		switch rng.Intn(3) {
		case 0:
			ops[i] = scriptOp{kind: 'i', attr: "a", a: rng.Int63n(domain)}
		case 1:
			ops[i] = scriptOp{kind: 'd', attr: "a", a: held()}
		default:
			ops[i] = scriptOp{kind: 'u', attr: "a", a: held(), b: rng.Int63n(domain)}
		}
		if missing := ops[i].applyModel(m); missing != "" {
			t.Fatal(missing)
		}
		versions[i+1] = versions[i]
		switch op := ops[i]; op.kind {
		case 'i':
			versions[i+1].count[op.a]++
		case 'd':
			versions[i+1].count[op.a]--
		default:
			versions[i+1].count[op.a]--
			versions[i+1].count[op.b]++
		}
	}

	cfg := durCfg(ModeHolistic)
	cfg.RefinementsPerWorker = 8
	cfg.L1CacheBytes = 1024
	fs := durable.NewFaultFS()
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("a", base); err != nil {
		t.Fatal(err)
	}

	// bounds returns the least and most [lo, hi) can count (or sum to)
	// between the versions from and to: a value's tuples change one
	// operation at a time, but which of the operations in flight a read
	// already sees is its own business, value by value.
	bounds := func(from, to int, lo, hi int64, weigh func(v int64) int64) (least, most int64) {
		for v := lo; v < hi; v++ {
			mn, mx := versions[from].count[v], versions[from].count[v]
			for ver := from + 1; ver <= to; ver++ {
				mn, mx = min(mn, versions[ver].count[v]), max(mx, versions[ver].count[v])
			}
			least, most = least+int64(mn)*weigh(v), most+int64(mx)*weigh(v)
		}
		return least, most
	}
	one := func(int64) int64 { return 1 }
	self := func(v int64) int64 { return v }

	var started, finished atomic.Int64 // writes begun, writes acknowledged
	var reads, exact atomic.Int64      // reads checked; those that overlapped no write
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Int63n(domain)
				hi := lo + 1 + rng.Int63n(domain-lo)
				from := int(finished.Load())
				var got int64
				var err error
				weigh, what := one, "count"
				switch q % 3 {
				case 0:
					var n int
					n, err = s.CountRange("a", lo, hi)
					got = int64(n)
				case 1:
					got, err = s.SumRange("a", lo, hi)
					weigh, what = self, "sum"
				default:
					var rows []uint32
					rows, err = s.SelectRows("a", lo, hi)
					got, what = int64(len(rows)), "rows"
				}
				to := int(started.Load())
				if err != nil {
					t.Errorf("reader %d: %s [%d, %d): %v", r, what, lo, hi, err)
					return
				}
				if least, most := bounds(from, to, lo, hi, weigh); got < least || got > most {
					t.Errorf("reader %d: %s [%d, %d) = %d between versions %d and %d, want %d..%d", r, what, lo, hi, got, from, to, least, most)
					return
				}
				reads.Add(1)
				if from == to {
					exact.Add(1)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // checkpoints, beside the daemon's own idle-time ones
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				if err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	for i, op := range ops {
		started.Store(int64(i + 1))
		if err := op.apply(s); err != nil {
			t.Errorf("write %d (%c %d): %v", i, op.kind, op.a, err)
			break
		}
		finished.Store(int64(i + 1))
		if i%64 == 0 {
			time.Sleep(time.Millisecond) // let reads see a version to themselves
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d reads checked against %d versions, %d of them exactly; %d checkpoints", reads.Load(), writes+1, exact.Load(), s.Metrics().Recovery.Snapshots)
	if exact.Load() == 0 {
		t.Error("no read ran without a write in flight; nothing was checked exactly")
	}
	check := func(tag string, s *Store) {
		t.Helper()
		rows, err := s.SelectRows("a", 0, domain)
		slices.Sort(rows)
		if want := m.Rows([]model.Pred{{Attr: "a", Lo: 0, Hi: domain}}); err != nil || !slices.Equal(rows, want) {
			t.Fatalf("%s: %d rows (%v), the model holds %d, or other ones", tag, len(rows), err, len(want))
		}
		for v := int64(0); v < domain; v++ {
			if n, _ := s.CountRange("a", v, v+1); n != int(versions[writes].count[v]) {
				t.Fatalf("%s: value %d counted %d times, want %d", tag, v, n, versions[writes].count[v])
			}
		}
	}
	if t.Failed() {
		s.Close()
		return
	}
	check("quiesced", s)
	s.Close()
	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("reopened", r)
}

// TestResidualIndexUnderAppends: a residual conjunct the planner selects
// through its own index merges the inserts that fall in its range — rows
// the snapshot its aggregate folds through may not hold yet. One writer
// appends rows to both attributes while Where(a).Where(b).Sum(b) queries
// run with b's cracker refined on their bounds: every answer lies between
// the sums before and after the appends, and no fold meets a row without a
// value.
func TestResidualIndexUnderAppends(t *testing.T) {
	const rows, domain, appends = 1 << 15, 1 << 20, 4000
	const v = domain / 4 // every appended row qualifies on both attributes
	rng := rand.New(rand.NewSource(7))
	var cols [2][]int64
	for i := range cols {
		cols[i] = make([]int64, rows)
		for j := range cols[i] {
			cols[i][j] = rng.Int63n(domain)
		}
	}
	m := model.New([]string{"a", "b"}, cols[0], cols[1])
	preds := []model.Pred{{Attr: "a", Lo: 0, Hi: domain / 2}, {Attr: "b", Lo: domain / 8, Hi: 7 * domain / 8}}
	before := m.Sum("b", preds)
	for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewStore(storeConfig(mode))
			defer s.Close()
			for i, name := range []string{"a", "b"} {
				if err := s.AddIntColumn(name, cols[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.CountRange("b", preds[1].Lo, preds[1].Hi); err != nil {
				t.Fatal(err)
			}
			q := s.Query().Where("a", preds[0].Lo, preds[0].Hi).Where("b", preds[1].Lo, preds[1].Hi)
			if e, err := q.Explain(); err != nil || e.Conjuncts[1].Applied != "index" {
				t.Fatalf("residual b not selected through its index (%v):\n%v", err, e)
			}
			// The rows land in a first, so a drive on a finds them while b
			// is still receiving them between the queries' steps. A failed
			// query stops the writer before the store closes.
			stop, done := make(chan struct{}), make(chan struct{})
			defer func() { close(stop); <-done }()
			go func() {
				defer close(done)
				for _, attr := range []string{"a", "b"} {
					for range appends {
						select {
						case <-stop:
							return
						default:
						}
						if err := s.Insert(attr, v); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				sum, err := q.Sum("b")
				if err != nil {
					t.Fatal(err)
				}
				if sum < before || sum > before+appends*v {
					t.Fatalf("sum %d outside [%d, %d]", sum, before, before+appends*v)
				}
			}
			if sum, err := q.Sum("b"); err != nil || sum != before+appends*v {
				t.Fatalf("sum after the appends = %d, %v; want %d", sum, err, before+appends*v)
			}
		})
	}
}

// TestResidualIndexUnderUpdates: one writer moves the b values of rows
// that qualify on a out of b's range and back while Where(a).Where(b)
// queries fold b, with b selected through its index. A row the select
// finds in range must be folded with the value it was found on, never
// with one the snapshot holds from before or after: no maximum at or past
// b's upper bound, and every sum between the sums with all moved rows out
// and all in (adaptive, holistic).
func TestResidualIndexUnderUpdates(t *testing.T) {
	const rows, domain, moved, rounds = 1 << 15, 1 << 20, 64, 40
	const away = int64(1) << 40 // far outside b's range: one such fold breaks every bound
	rng := rand.New(rand.NewSource(9))
	a, b := make([]int64, rows), make([]int64, rows)
	for j := range a {
		a[j] = rng.Int63n(domain)
		b[j] = int64(j*31%rows) * (domain / rows) // distinct, so an Update finds the row meant
	}
	preds := []model.Pred{{Attr: "a", Lo: 0, Hi: domain / 2}, {Attr: "b", Lo: domain / 8, Hi: 7 * domain / 8}}
	var targets []int
	for j := 0; len(targets) < moved; j++ {
		if a[j] < preds[0].Hi && b[j] >= preds[1].Lo && b[j] < preds[1].Hi {
			targets = append(targets, j)
		}
	}
	allIn := model.New([]string{"a", "b"}, a, b).Sum("b", preds)
	allOut := allIn
	for _, j := range targets {
		allOut -= b[j]
	}
	for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewStore(storeConfig(mode))
			defer s.Close()
			if err := s.AddIntColumn("a", a); err != nil {
				t.Fatal(err)
			}
			if err := s.AddIntColumn("b", b); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CountRange("b", preds[1].Lo, preds[1].Hi); err != nil {
				t.Fatal(err)
			}
			q := s.Query().Where("a", preds[0].Lo, preds[0].Hi).Where("b", preds[1].Lo, preds[1].Hi)
			if e, err := q.Explain(); err != nil || e.Conjuncts[1].Applied != "index" {
				t.Fatalf("residual b not selected through its index (%v):\n%v", err, e)
			}
			stop, done := make(chan struct{}), make(chan struct{})
			defer func() { close(stop); <-done }()
			go func() {
				defer close(done)
				for range rounds {
					select {
					case <-stop:
						return
					default:
					}
					for _, j := range targets {
						if err := s.Update("b", b[j], away+int64(j)); err != nil {
							t.Error(err)
							return
						}
					}
					for _, j := range targets {
						if err := s.Update("b", away+int64(j), b[j]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				sum, err := q.Sum("b")
				if err != nil {
					t.Fatal(err)
				}
				if sum < allOut || sum > allIn {
					t.Fatalf("sum %d outside [%d, %d]", sum, allOut, allIn)
				}
				if mx, ok, err := q.Max("b"); err != nil || ok && mx >= preds[1].Hi {
					t.Fatalf("max %d (%v), at or past b's bound %d", mx, err, preds[1].Hi)
				}
			}
			if sum, err := q.Sum("b"); err != nil || sum != allIn {
				t.Fatalf("sum after the updates = %d, %v; want %d", sum, err, allIn)
			}
		})
	}
}

package holistic

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"holistic/internal/durable"
	"holistic/internal/obs"
	"holistic/internal/obs/flight"
)

// doorStore is a ModeHolistic store over three uniform columns; the
// flight ring is large enough that the daemon's own events never wrap a
// door's query events out of it.
func doorStore(t *testing.T, rows int, seed int64) *Store {
	t.Helper()
	s := NewStore(Config{Mode: ModeHolistic, Threads: 2, Seed: seed, FlightEvents: 1 << 16})
	rng := rand.New(rand.NewSource(seed))
	for _, name := range []string{"a", "b", "g"} {
		vals := make([]int64, rows)
		for i := range vals {
			if name == "g" {
				vals[i] = rng.Int63n(8)
			} else {
				vals[i] = rng.Int63n(1 << 14)
			}
		}
		if err := s.AddIntColumn(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// observed is what the door table compares before and after a door: the
// lifetime query count, the flight ring's query and representation
// events, and the store's single-attribute selects.
type observed struct{ queries, evQuery, evRep, selects int64 }

func observe(s *Store) observed {
	m := s.Metrics()
	o := observed{queries: int64(m.Query.Queries), selects: m.Exec.Selects}
	for _, e := range s.ob.Flight.Snapshot() {
		switch e.Kind {
		case flight.EvQuery:
			o.evQuery++
		case flight.EvRep:
			o.evRep++
		}
	}
	return o
}

// TestEveryDoorFeedsEveryConsumer: whichever public door a query comes
// through, the one observer sees it once — the query count, the flight
// ring's EvQuery events and (where the door drives an index) the
// executor's select count all advance by exactly the number of queries
// issued, and every selection a grouped query or a join side builds
// records its representation once, on that side's store — with or
// without predicates. A residual conjunct the planner's rule selects
// through its own index is one more select, so where a door has one, the
// select count advances by one more per such choice, read off the query's
// trace. Before the observer, every site had to remember every sink, and
// the four range doors, the single-conjunct pushdowns, the predicate-free
// grouping, the predicate-free join side and Explain each forgot at least
// one.
func TestEveryDoorFeedsEveryConsumer(t *testing.T) {
	s := doorStore(t, 20_000, 1)
	defer s.Close()
	dim := doorStore(t, 2_000, 2)
	defer dim.Close()
	// b cracked on the bounds the two-conjunct doors filter it by: their
	// residual costs no crack, so the rule selects it through its index.
	if _, err := s.CountRange("b", 0, 1<<13); err != nil {
		t.Fatal(err)
	}
	var traces bytes.Buffer
	if err := s.SetTraceJSONL(&traces); err != nil {
		t.Fatal(err)
	}
	var residualSelects int64
	// explained counts the residuals the Explain door's reports show
	// selected through their index: its traces reach no sink.
	var explained int64
	// indexed returns how many residuals on the driven attributes were
	// selected through their index since the last call.
	indexed := func(driven []string) int64 {
		if err := s.traceSink.Flush(); err != nil {
			t.Fatal(err)
		}
		n := explained
		for _, line := range strings.Split(strings.TrimSpace(traces.String()), "\n") {
			var tr obs.QueryTrace
			if line == "" {
				continue
			}
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatal(err)
			}
			for _, c := range tr.Conjuncts {
				if c.Applied == "index" && slices.Contains(driven, c.Attr) {
					n++
				}
			}
		}
		traces.Reset()
		explained = 0
		return n
	}

	const n = 7
	doors := []struct {
		name   string
		driven []string // attributes whose index the door drives; nil = none
		reps   int64    // EvRep events per query
		dim    int64    // EvRep events per query on the joined store
		run    func(i int64) error
	}{
		{"CountRange", []string{"a"}, 0, 0, func(i int64) error { _, err := s.CountRange("a", i*100, i*100+3000); return err }},
		{"SumRange", []string{"a"}, 0, 0, func(i int64) error { _, err := s.SumRange("a", i*100, i*100+3000); return err }},
		{"MinMaxRange", []string{"b"}, 0, 0, func(i int64) error { _, _, _, err := s.MinMaxRange("b", i*100, i*100+3000); return err }},
		{"SelectRows", []string{"b"}, 0, 0, func(i int64) error { _, err := s.SelectRows("b", i*100, i*100+3000); return err }},
		{"Where(1).Count", []string{"a"}, 1, 0, func(i int64) error { _, err := s.Query().Where("a", i*50, i*50+2000).Count(); return err }},
		{"Where(2).Count", []string{"a", "b"}, 1, 0, func(i int64) error {
			_, err := s.Query().Where("a", i*50, i*50+2000).Where("b", 0, 1<<13).Count()
			return err
		}},
		{"Where(1).GroupBy.Aggregate", []string{"a"}, 1, 0, func(i int64) error {
			_, err := s.Query().Where("a", i*50, i*50+6000).GroupBy("g").Aggregate(Count(), Sum("b"))
			return err
		}},
		{"GroupBy.Aggregate", nil, 1, 0, func(int64) error {
			_, err := s.Query().GroupBy("g").Aggregate(Count())
			return err
		}},
		{"Join.Count", []string{"a"}, 1, 1, func(i int64) error {
			_, err := s.Query().Where("a", i*50, i*50+6000).Join(dim.Query(), "g", "g").Count()
			return err
		}},
		{"Join(unfiltered left).Count", nil, 1, 1, func(i int64) error {
			_, err := s.Query().Join(dim.Query().Where("a", i*50, i*50+6000), "g", "g").Count()
			return err
		}},
		{"Join(both unfiltered).Count", nil, 1, 1, func(int64) error {
			_, err := s.Query().Join(dim.Query(), "g", "g").Count()
			return err
		}},
		{"Explain", []string{"a", "b"}, 1, 0, func(i int64) error {
			e, err := s.Query().Where("a", i*50, i*50+2000).Where("b", 0, 1<<13).Explain()
			if err == nil {
				for _, c := range e.Conjuncts {
					if c.Applied == "index" {
						explained++
					}
				}
			}
			return err
		}},
	}
	for _, d := range doors {
		t.Run(d.name, func(t *testing.T) {
			indexed(nil) // drop what earlier doors left
			before, dimBefore := observe(s), observe(dim)
			for i := int64(0); i < n; i++ {
				if err := d.run(i); err != nil {
					t.Fatal(err)
				}
			}
			after := observe(s)
			if got := after.queries - before.queries; got != n {
				t.Errorf("Metrics().Query.Queries advanced by %d, want %d", got, n)
			}
			if got := after.evQuery - before.evQuery; got != n {
				t.Errorf("flight ring gained %d EvQuery events, want %d", got, n)
			}
			if got := after.evRep - before.evRep; got != n*d.reps {
				t.Errorf("flight ring gained %d EvRep events, want %d", got, n*d.reps)
			}
			if got := observe(dim).evRep - dimBefore.evRep; got != n*d.dim {
				t.Errorf("joined store's flight ring gained %d EvRep events, want %d", got, n*d.dim)
			}
			wantSelects := indexed(d.driven)
			residualSelects += wantSelects
			if d.driven != nil {
				wantSelects += n
			}
			if got := after.selects - before.selects; got != wantSelects {
				t.Errorf("Metrics().Exec.Selects advanced by %d over %v, want %d", got, d.driven, wantSelects)
			}
		})
	}
	if residualSelects == 0 {
		t.Error("no door selected a residual through its index; the count above never saw one")
	}
}

// TestRangeDoorsReachTheLedger is the explore-range shape: a holistic
// store driven by nothing but CountRange and SumRange must end with one
// flight query event per query and, on each touched index's statistics
// node, an fI that counts the selects it drove.
func TestRangeDoorsReachTheLedger(t *testing.T) {
	s := doorStore(t, 20_000, 3)
	defer s.Close()
	const n = 40
	for i := int64(0); i < n; i++ {
		attr := []string{"a", "b"}[i%2]
		var err error
		if i%5 == 0 {
			_, err = s.SumRange(attr, i*100, i*100+2000)
		} else {
			_, err = s.CountRange(attr, i*100, i*100+2000)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	o := observe(s)
	if o.evQuery != n || o.queries != n {
		t.Errorf("%d queries: Metrics counts %d, flight ring holds %d EvQuery", n, o.queries, o.evQuery)
	}
	ixs := s.Metrics().Daemon.Indexes
	if len(ixs) != 2 {
		t.Fatalf("index space %+v, want a and b", ixs)
	}
	for _, ic := range ixs {
		if ic.Accesses != n/2 {
			t.Errorf("fI[%s] = %d, want %d", ic.Name, ic.Accesses, n/2)
		}
	}
}

// crashedDir builds a ModeHolistic data directory whose last process
// died with three acknowledged inserts in the WAL: the next open has
// records to replay and a post-replay checkpoint to write.
func crashedDir(t *testing.T, cfg Config) *durable.FaultFS {
	t.Helper()
	fs := durable.NewFaultFS()
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("a", []int64{5, 3, 9, 1, 7, 2, 8}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{20, 21, 22} {
		if err := s.Insert("a", v); err != nil {
			t.Fatal(err)
		}
	}
	s.discard() // the process dies: nothing is flushed, its goroutines go
	fs.Crash()
	return fs
}

// TestFailedOpenReleasesEverything kills the open of a ModeHolistic
// directory at every mutating filesystem operation it performs — the
// post-replay checkpoint's among them, by which time the executor and
// its daemon are running — and asserts that the store that never was
// leaves nothing behind: daemon and workers stopped, WAL file closed. The goroutine count returns to its pre-open value.
func TestFailedOpenReleasesEverything(t *testing.T) {
	cfg := durCfg(ModeHolistic)
	sawCheckpoint := false
	for k := 1; ; k++ {
		fs := crashedDir(t, cfg)
		before := runtime.NumGoroutine()
		fs.KillAt(k, false)
		r, err := openStoreFS(fs, cfg)
		if err == nil {
			r.Close()
			break // k is past the last operation of a clean open
		}
		if strings.Contains(err.Error(), "post-replay checkpoint") {
			sawCheckpoint = true
		}
		after := runtime.NumGoroutine()
		for i := 0; after > before && i < 100; i++ { // exiting goroutines unwind
			time.Sleep(2 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("open killed at operation %d (%v) leaked goroutines: %d before, %d after", k, err, before, after)
		}
	}
	if !sawCheckpoint {
		t.Fatal("no kill point failed the post-replay checkpoint; the test no longer reaches it")
	}
}

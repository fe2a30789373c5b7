package holistic

import (
	"math/rand"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cpu"
	"holistic/internal/workload"
)

func storeConfig(mode Mode) Config {
	return Config{
		Mode:                 mode,
		Threads:              2,
		TuningInterval:       time.Millisecond,
		RefinementsPerWorker: 8,
		L1CacheBytes:         4096,
		Seed:                 1,
	}
}

func buildStore(t *testing.T, mode Mode, attrs, rows int, domain int64) (*Store, [][]int64) {
	t.Helper()
	s := NewStore(storeConfig(mode))
	bases := make([][]int64, attrs)
	for a := 0; a < attrs; a++ {
		bases[a] = workload.UniformColumn(rows, domain, int64(200+a))
		if err := s.AddIntColumn(attr(a), bases[a]); err != nil {
			t.Fatal(err)
		}
	}
	return s, bases
}

func attr(a int) string { return string(rune('a' + a)) }

func TestAllModesAnswerCorrectly(t *testing.T) {
	const domain = 1 << 16
	modes := []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}
	for _, mode := range modes {
		s, bases := buildStore(t, mode, 2, 10_000, domain)
		s.Prepare()
		rng := rand.New(rand.NewSource(5))
		for q := 0; q < 40; q++ {
			a := rng.Intn(2)
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain-lo) + 1
			got, err := s.CountRange(attr(a), lo, hi)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			if want := column.CountRange(bases[a], lo, hi); got != want {
				t.Fatalf("%v query %d: got %d, want %d", mode, q, got, want)
			}
		}
		s.Close()
	}
}

func TestAddColumnAfterQueryFails(t *testing.T) {
	s, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer s.Close()
	if _, err := s.CountRange("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("late", make([]int64, 100)); err == nil {
		t.Fatal("column added after first query")
	}
}

func TestUnknownAttribute(t *testing.T) {
	s, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer s.Close()
	if _, err := s.CountRange("nope", 0, 10); err == nil {
		t.Fatal("unknown attribute did not error")
	}
}

func TestInsertSupportedModes(t *testing.T) {
	s, base := buildStore(t, ModeAdaptive, 1, 5_000, 1000)
	defer s.Close()
	s.CountRange("a", 0, 500)
	for i := 0; i < 10; i++ {
		if err := s.Insert("a", 400); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.CountRange("a", 400, 401)
	if want := column.CountRange(base[0], 400, 401) + 10; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}

	scan, _ := buildStore(t, ModeScan, 1, 100, 1000)
	defer scan.Close()
	if err := scan.Insert("a", 1); err == nil {
		t.Fatal("scan mode accepted an insert")
	}
}

func TestHolisticBackgroundRefinement(t *testing.T) {
	s, base := buildStore(t, ModeHolistic, 2, 100_000, 1<<20)
	defer s.Close()
	if _, err := s.CountRange("a", 0, 1<<19); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for s.Stats().Refinements == 0 {
		select {
		case <-deadline:
			t.Fatalf("daemon never refined; stats %+v", s.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := s.Stats()
	if st.Pieces < 3 || st.Activations == 0 {
		t.Errorf("stats = %+v, want pieces and activations to grow", st)
	}
	// Correctness under continuous refinement.
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		got, _ := s.CountRange("a", lo, hi)
		if want := column.CountRange(base[0], lo, hi); got != want {
			t.Fatalf("query %d: got %d, want %d", q, got, want)
		}
	}
}

func TestAddPotentialIndex(t *testing.T) {
	s, _ := buildStore(t, ModeHolistic, 2, 20_000, 1<<16)
	defer s.Close()
	if err := s.AddPotentialIndex("b"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for s.Stats().Pieces < 3 {
		select {
		case <-deadline:
			t.Fatalf("potential index not refined; stats %+v", s.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	sa, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer sa.Close()
	if err := sa.AddPotentialIndex("a"); err == nil {
		t.Fatal("adaptive mode accepted a potential index")
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeScan: "scan", ModeOffline: "offline", ModeOnline: "online",
		ModeAdaptive: "adaptive", ModeStochastic: "stochastic",
		ModeCCGI: "ccgi", ModeHolistic: "holistic",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %s", int(m), m.String())
		}
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode string")
	}
}

func TestStatsNonCrackingModes(t *testing.T) {
	s, _ := buildStore(t, ModeScan, 1, 1000, 1000)
	defer s.Close()
	s.CountRange("a", 0, 10)
	st := s.Stats()
	if st.Pieces != 0 || st.Refinements != 0 {
		t.Errorf("scan stats = %+v, want zeros", st)
	}
}

// TestConvergedStoreDaemonStandsDown: the shape of the analytic workload
// — uniform predicate columns beside a 64-value and an 8-value group key,
// which can never average |L1| values a piece — converges to ratio 1.0
// with every index optimal, after which the daemon keeps cycling but
// makes no refinement attempt.
func TestConvergedStoreDaemonStandsDown(t *testing.T) {
	s := NewStore(storeConfig(ModeHolistic)) // |L1| = 512 values
	defer s.Close()
	const rows = 1 << 16
	domains := map[string]int64{"u0": 1 << 20, "u1": 1 << 20, "g0": 64, "g1": 8}
	for name, domain := range domains {
		if err := s.AddIntColumn(name, workload.UniformColumn(rows, domain, domain)); err != nil {
			t.Fatal(err)
		}
	}
	for name := range domains {
		if err := s.AddPotentialIndex(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.CountRange("u0", 0, 1<<19); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Metrics().Daemon.Ratio < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("never converged: %+v", s.Metrics().Daemon.Indexes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := s.Metrics().Daemon
	for _, ix := range before.Indexes {
		if ix.State != "optimal" {
			t.Errorf("ratio 1.0 with %s still %s (%d pieces)", ix.Name, ix.State, ix.Pieces)
		}
	}
	after := s.Metrics().Daemon
	for after.Totals.Cycles < before.Totals.Cycles+20 {
		time.Sleep(time.Millisecond)
		after = s.Metrics().Daemon
	}
	if after.Attempts != before.Attempts {
		t.Fatalf("%d attempts over %d cycles of a converged store", after.Attempts-before.Attempts, after.Totals.Cycles-before.Totals.Cycles)
	}
}

// TestTerminalsLeaveNoBusyContext: every Store terminal, answered or
// refused, hands back the busy contexts it counted — its own and its
// fan-outs' — so a leak cannot starve the daemon of idle contexts.
func TestTerminalsLeaveNoBusyContext(t *testing.T) {
	const rows, domain = 1 << 16, 1 << 10
	for _, mode := range []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := storeConfig(mode)
			cfg.TuningInterval = time.Hour // the daemon's workers count too: keep them out
			mk := func(names ...string) *Store {
				s := NewStore(cfg)
				for i, name := range names {
					if err := s.AddIntColumn(name, workload.UniformColumn(rows, domain, int64(300+i))); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			l, r := mk("a", "b"), mk("k", "w")
			defer r.Close()
			defer l.Close()
			q := func() *Query { return l.Query().Where("a", 100, 900).Where("b", 0, 800) }
			j := func() *JoinQuery { return q().Join(r.Query().Where("w", 0, 500), "a", "k") }
			terminals := []struct {
				name    string
				wantErr bool
				run     func() error
			}{
				{"CountRange", false, func() error { _, err := l.CountRange("a", 100, 900); return err }},
				{"SumRange", false, func() error { _, err := l.SumRange("a", 100, 900); return err }},
				{"MinMaxRange", false, func() error { _, _, _, err := l.MinMaxRange("a", 100, 900); return err }},
				{"SelectRows", false, func() error { _, err := l.SelectRows("a", 100, 900); return err }},
				{"Count", false, func() error { _, err := q().Count(); return err }},
				{"Sum", false, func() error { _, err := q().Sum("b"); return err }},
				{"Rows", false, func() error { _, err := q().Rows(); return err }},
				{"Values", false, func() error { _, err := q().Values("a", "b"); return err }},
				{"Min", false, func() error { _, _, err := q().Min("b"); return err }},
				{"Max", false, func() error { _, _, err := q().Max("b"); return err }},
				{"GroupBy", false, func() error { _, err := q().GroupBy("b").Aggregate(Count(), Sum("a")); return err }},
				{"whole-relation GroupBy", false, func() error { _, err := l.Query().GroupBy("b").Aggregate(Count(), Min("a")); return err }},
				{"Join Count", false, func() error { _, err := j().Count(); return err }},
				{"Join Sum", false, func() error { _, err := j().Sum("w"); return err }},
				{"Join Pairs", false, func() error { _, _, err := j().Pairs(); return err }},
				{"Join GroupBy", false, func() error { _, err := j().GroupBy("b").Aggregate(Count(), Max("w")); return err }},
				{"Explain", false, func() error { _, err := q().Explain(); return err }},
				{"GroupBy Explain", false, func() error { _, err := q().GroupBy("b").Explain(Count()); return err }},
				{"Join Explain", false, func() error { _, err := j().Explain(); return err }},
				{"unknown attribute range", true, func() error { _, err := l.CountRange("nope", 0, 1); return err }},
				{"unknown attribute query", true, func() error { _, err := l.Query().Where("nope", 0, 1).Count(); return err }},
				{"closed store", true, func() error { l.Close(); _, err := l.CountRange("a", 0, 1); return err }},
			}
			for _, tm := range terminals {
				if err := tm.run(); (err != nil) != tm.wantErr {
					t.Fatalf("%s: err = %v, want an error: %v", tm.name, err, tm.wantErr)
				}
				// A leak holds the count for good; anything still running
				// from an earlier test holds it only for a moment.
				for deadline := time.Now().Add(time.Second); cpu.Busy() != 0; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("busy count %d after %s", cpu.Busy(), tm.name)
					}
				}
			}
		})
	}
}

// TestReadsTakeNoStoreLock: a built store answers a range count, a
// conjunction, a grouped aggregate and a join across two stores while
// both stores' locks are held — no read takes a store-wide lock.
func TestReadsTakeNoStoreLock(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
		t.Run(mode.String(), func(t *testing.T) {
			l, _ := buildStore(t, mode, 2, 4096, 64)
			defer l.Close()
			r := NewStore(storeConfig(mode))
			defer r.Close()
			if err := r.AddIntColumn("k", workload.UniformColumn(1024, 64, 7)); err != nil {
				t.Fatal(err)
			}
			reads := func() error {
				if _, err := l.CountRange("a", 5, 40); err != nil {
					return err
				}
				if _, err := l.Query().Where("a", 5, 40).Where("b", 10, 50).Count(); err != nil {
					return err
				}
				if _, err := l.Query().Where("a", 5, 40).GroupBy("b").Aggregate(Count()); err != nil {
					return err
				}
				_, err := l.Query().Join(r.Query(), "a", "k").Count()
				return err
			}
			if err := reads(); err != nil { // builds both stores
				t.Fatal(err)
			}
			l.mu.Lock()
			r.mu.Lock()
			done := make(chan error, 1)
			go func() { done <- reads() }()
			select {
			case err := <-done:
				l.mu.Unlock()
				r.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				l.mu.Unlock()
				r.mu.Unlock()
				<-done
				t.Fatal("a read waited for the store lock")
			}
		})
	}
}

package holistic

import (
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"holistic/internal/workload"
)

// settledGoroutines waits for the process's goroutine count to hold still
// for a few readings (goroutines of earlier tests and of finished fan-outs
// retire asynchronously) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, deadline := 0, time.Now().Add(2*time.Second); stable < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// TestOneBackgroundLoop is the goroutine census of a store: after a
// column and one query, a store in memory or durable (default snapshot
// interval) runs exactly one goroutine of its own under ModeHolistic —
// the indexing daemon — and none under every other mode; Close retires
// it.
func TestOneBackgroundLoop(t *testing.T) {
	data := workload.UniformColumn(20_000, 1<<20, 7)
	for _, durableStore := range []bool{false, true} {
		for _, mode := range []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic} {
			name := mode.String() + "/memory"
			if durableStore {
				name = mode.String() + "/durable"
			}
			t.Run(name, func(t *testing.T) {
				before := settledGoroutines()
				cfg := Config{Mode: mode}
				var s *Store
				if durableStore {
					var err error
					if s, err = OpenStore(t.TempDir(), cfg); err != nil {
						t.Fatal(err)
					}
				} else {
					s = NewStore(cfg)
				}
				if err := s.AddIntColumn("a", data); err != nil {
					t.Fatal(err)
				}
				if _, err := s.CountRange("a", 1000, 200_000); err != nil {
					t.Fatal(err)
				}
				want := 0
				if mode == ModeHolistic {
					want = 1
				}
				if got := settledGoroutines() - before; got != want {
					t.Errorf("the store runs %d goroutines of its own, want %d", got, want)
				}
				s.Close()
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := runtime.NumGoroutine() - before; got > 0 {
					t.Errorf("%d goroutines still running after Close", got)
				}
			})
		}
	}
}

// TestSnapshotTimerIdleWithoutWrites: a durable store nobody writes to
// takes no background snapshot, however short its interval and however
// many queries refine its indexes.
func TestSnapshotTimerIdleWithoutWrites(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := durCfg(mode)
			cfg.SnapshotInterval = 10 * time.Millisecond
			s, err := OpenStore(t.TempDir(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.AddIntColumn("a", workload.UniformColumn(4096, 1000, 3)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CountRange("a", 0, 50); err != nil { // the initial snapshot
				t.Fatal(err)
			}
			before := s.Metrics().Recovery.Snapshots
			for end := time.Now().Add(5 * cfg.SnapshotInterval); time.Now().Before(end); {
				if _, err := s.CountRange("a", 100, 400); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
			if got := s.Metrics().Recovery.Snapshots; got != before {
				t.Errorf("%d background snapshots over 5 intervals without a write, want 0", got-before)
			}
		})
	}
}

// TestSnapshotTimerStoppedByClose: Close right after a write, whose
// snapshot timer is due at about the same moment, leaves no checkpoint
// running once it returns — the directory and the snapshot count stay
// as Close left them.
func TestSnapshotTimerStoppedByClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		cfg := durCfg(ModeAdaptive)
		cfg.SnapshotInterval = time.Duration(i%4) * 250 * time.Microsecond
		if cfg.SnapshotInterval == 0 {
			cfg.SnapshotInterval = 100 * time.Microsecond
		}
		s, err := OpenStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := matrixBases()
		if err := s.AddIntColumn("a", a); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CountRange("a", 0, 50); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("a", int64(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%3) * cfg.SnapshotInterval / 2)
		s.Close()
		snaps, files := s.Metrics().Recovery.Snapshots, dirNames(t, dir)
		time.Sleep(5 * cfg.SnapshotInterval)
		if got := s.Metrics().Recovery.Snapshots; got != snaps {
			t.Fatalf("round %d: %d snapshots after Close returned", i, got-snaps)
		}
		if got := dirNames(t, dir); !slices.Equal(got, files) {
			t.Fatalf("round %d: the directory changed after Close: %v -> %v", i, files, got)
		}
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(es))
	for i, e := range es {
		names[i] = e.Name()
	}
	return names
}

package holistic

import (
	"errors"
	"testing"
)

// TestStatsBeforeFirstQueryIsPure guards the telemetry bugfix: Stats on a
// never-queried store must return a zero snapshot without building the
// executor (which under ModeHolistic would start the daemon as a side
// effect of a read-only call).
func TestStatsBeforeFirstQueryIsPure(t *testing.T) {
	s, _ := buildStore(t, ModeHolistic, 1, 1_000, 1000)
	defer s.Close()
	st := s.Stats()
	if st.Pieces != 0 || st.Refinements != 0 || st.Activations != 0 {
		t.Fatalf("Stats before first query = %+v, want zero snapshot", st)
	}
	if st.Mode != ModeHolistic {
		t.Fatalf("Stats.Mode = %v, want %v", st.Mode, ModeHolistic)
	}
	s.mu.Lock()
	built := s.exec.Load() != nil
	s.mu.Unlock()
	if built {
		t.Fatal("Stats built the executor (and started the daemon) as a side effect")
	}
}

// TestCloseIsIdempotentAndFinal guards the lifecycle bugfix: Close twice
// is safe, and every operation after Close reports ErrClosed instead of
// running against a stopped daemon.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	s, _ := buildStore(t, ModeHolistic, 1, 1_000, 1000)
	if _, err := s.CountRange("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // must not panic or double-stop

	if _, err := s.CountRange("a", 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("CountRange after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.SumRange("a", 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("SumRange after Close: err = %v, want ErrClosed", err)
	}
	if _, _, _, err := s.MinMaxRange("a", 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("MinMaxRange after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.SelectRows("a", 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("SelectRows after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Insert("a", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Insert after Close: err = %v, want ErrClosed", err)
	}
	if err := s.AddIntColumn("late", []int64{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddIntColumn after Close: err = %v, want ErrClosed", err)
	}
	if err := s.AddPotentialIndex("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddPotentialIndex after Close: err = %v, want ErrClosed", err)
	}
	// Close on a never-queried store is equally safe.
	fresh := NewStore(Config{})
	fresh.Close()
	fresh.Close()
}

// TestStoreErrorPaths covers the documented misuse errors on live stores.
func TestStoreErrorPaths(t *testing.T) {
	// Insert on a mode without update support.
	scan, _ := buildStore(t, ModeScan, 1, 100, 1000)
	defer scan.Close()
	if err := scan.Insert("a", 1); err == nil {
		t.Error("ModeScan accepted an Insert")
	}
	// AddIntColumn after the first query.
	ad, _ := buildStore(t, ModeAdaptive, 1, 100, 1000)
	defer ad.Close()
	if _, err := ad.SumRange("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := ad.AddIntColumn("late", make([]int64, 100)); err == nil {
		t.Error("column added after the first (aggregate) query")
	}
	// AddPotentialIndex outside ModeHolistic.
	if err := ad.AddPotentialIndex("a"); err == nil {
		t.Error("non-holistic mode accepted a potential index")
	}
}

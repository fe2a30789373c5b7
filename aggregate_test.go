package holistic

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"holistic/internal/column"
)

// oracleRows returns the positions of qualifying values in vals — the
// naive scan oracle for SelectRows, in ascending position order.
func oracleRows(vals []int64, lo, hi int64) []uint32 {
	var out []uint32
	for i, v := range vals {
		if v >= lo && v < hi {
			out = append(out, uint32(i))
		}
	}
	return out
}

// TestAggregatesMatchScanOracleAllModes is the randomized cross-mode
// differential test of the aggregate/materialization layer: every mode's
// CountRange, SumRange, MinMaxRange and SelectRows must agree with a
// naive scan over the base (and, on the modes that support Insert, over
// the base extended with the inserted values).
func TestAggregatesMatchScanOracleAllModes(t *testing.T) {
	const (
		domain = 1 << 14
		rows   = 8_000
	)
	modes := []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			s, bases := buildStore(t, mode, 2, rows, domain)
			defer s.Close()
			s.Prepare()

			// The oracle columns track base values plus inserts.
			oracle := make([][]int64, len(bases))
			for a := range bases {
				oracle[a] = append([]int64(nil), bases[a]...)
			}
			canInsert := mode == ModeAdaptive || mode == ModeStochastic || mode == ModeHolistic

			rng := rand.New(rand.NewSource(31 + int64(mode)))
			for q := 0; q < 80; q++ {
				if canInsert && q%5 == 4 {
					a := rng.Intn(len(oracle))
					v := rng.Int63n(domain)
					if err := s.Insert(attr(a), v); err != nil {
						t.Fatal(err)
					}
					oracle[a] = append(oracle[a], v)
				}

				a := rng.Intn(len(oracle))
				lo := rng.Int63n(domain)
				hi := lo + rng.Int63n(domain-lo) + 1

				n, err := s.CountRange(attr(a), lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if want := column.CountRange(oracle[a], lo, hi); n != want {
					t.Fatalf("query %d [%d,%d): count = %d, want %d", q, lo, hi, n, want)
				}

				sum, err := s.SumRange(attr(a), lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if want := column.ParallelSumRange(oracle[a], lo, hi, 1); sum != want {
					t.Fatalf("query %d [%d,%d): sum = %d, want %d", q, lo, hi, sum, want)
				}

				mn, mx, ok, err := s.MinMaxRange(attr(a), lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				wantMn, wantMx, wantN := column.ParallelMinMaxRange(oracle[a], lo, hi, 1)
				if ok != (wantN > 0) || (ok && (mn != wantMn || mx != wantMx)) {
					t.Fatalf("query %d [%d,%d): minmax = (%d,%d,%v), want (%d,%d,%v)",
						q, lo, hi, mn, mx, ok, wantMn, wantMx, wantN > 0)
				}

				got, err := s.SelectRows(attr(a), lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				want := oracleRows(oracle[a], lo, hi)
				if len(got) != len(want) {
					t.Fatalf("query %d [%d,%d): %d rows, want %d", q, lo, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("query %d [%d,%d): rows[%d] = %d, want %d", q, lo, hi, i, got[i], want[i])
					}
				}
			}
		})
	}
}

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
	built := s.exec != nil
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

package holistic

import (
	"math"
	"testing"

	"holistic/internal/column"
)

var sevenModes = []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}

// TestInvertedAndEmptyRangesAllModes: lo >= hi selects nothing in every
// mode and through every public query form. The sorted modes used to
// answer CountRange("a", 8, 2) with -4 and to panic in SumRange and
// SelectRows on a slice with start above end.
func TestInvertedAndEmptyRangesAllModes(t *testing.T) {
	base := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, mode := range sevenModes {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := storeConfig(mode)
			cfg.OnlineEpoch = 2 // cross into the sorted phase mid-test
			s := NewStore(cfg)
			defer s.Close()
			if err := s.AddIntColumn("a", base); err != nil {
				t.Fatal(err)
			}
			s.Prepare()
			for pass := 0; pass < 3; pass++ {
				for _, r := range [][2]int64{{8, 2}, {5, 5}, {math.MaxInt64, math.MinInt64}, {11, 3}} {
					lo, hi := r[0], r[1]
					if n, err := s.CountRange("a", lo, hi); err != nil || n != 0 {
						t.Errorf("CountRange(%d,%d) = %d, %v; want 0", lo, hi, n, err)
					}
					if sum, err := s.SumRange("a", lo, hi); err != nil || sum != 0 {
						t.Errorf("SumRange(%d,%d) = %d, %v; want 0", lo, hi, sum, err)
					}
					if _, _, ok, err := s.MinMaxRange("a", lo, hi); err != nil || ok {
						t.Errorf("MinMaxRange(%d,%d): ok=%v, %v; want no value", lo, hi, ok, err)
					}
					if rows, err := s.SelectRows("a", lo, hi); err != nil || len(rows) != 0 {
						t.Errorf("SelectRows(%d,%d) = %v, %v; want none", lo, hi, rows, err)
					}
					if n, err := s.Query().Where("a", lo, hi).Count(); err != nil || n != 0 {
						t.Errorf("Query().Where(%d,%d).Count() = %d, %v; want 0", lo, hi, n, err)
					}
				}
				// A proper range in between keeps the index building.
				if n, err := s.CountRange("a", 2, 8); err != nil || n != column.CountRange(base, 2, 8) {
					t.Fatalf("CountRange(2,8) = %d, %v", n, err)
				}
			}
		})
	}
}

// TestExecTelemetryAllModes: every mode records its selects — one per
// executor terminal, failed ones included — through the one shared
// prologue; cracker builds and merged updates are counted for the
// cracking modes only and exactly.
func TestExecTelemetryAllModes(t *testing.T) {
	const domain = 1 << 14
	for _, mode := range sevenModes {
		t.Run(mode.String(), func(t *testing.T) {
			s, bases := buildStore(t, mode, 2, 4000, domain)
			defer s.Close()
			cracking := mode == ModeAdaptive || mode == ModeStochastic || mode == ModeHolistic

			var selects, merged int64
			for q := 0; q < 12; q++ {
				a, lo := attr(q%2), int64(q)*1000
				var err error
				switch q % 4 {
				case 0:
					_, err = s.CountRange(a, lo, lo+2000)
				case 1:
					_, err = s.SumRange(a, lo, lo+2000)
				case 2:
					_, _, _, err = s.MinMaxRange(a, lo, lo+2000)
				case 3:
					_, err = s.SelectRows(a, lo, lo+2000)
				}
				if err != nil {
					t.Fatal(err)
				}
				selects++
			}
			if _, err := s.CountRange("nope", 0, 10); err == nil {
				t.Fatal("unknown attribute did not error")
			}
			selects++
			if cracking {
				for i := int64(0); i < 5; i++ {
					if err := s.Insert("a", 100+i); err != nil {
						t.Fatal(err)
					}
				}
				want := column.CountRange(bases[0], 100, 105) + 5
				if n, err := s.CountRange("a", 100, 105); err != nil || n != want {
					t.Fatalf("count after inserts = %d, %v; want %d", n, err, want)
				}
				selects++
				merged = 5
			}

			m := s.Metrics().Exec
			if m.Selects != selects || int64(m.SelectLatency.Count) != selects {
				t.Errorf("Exec.Selects = %d (latency samples %d), want %d", m.Selects, m.SelectLatency.Count, selects)
			}
			wantBuilds := int64(0)
			if cracking {
				wantBuilds = 2 // one per attribute touched
			}
			if m.CrackerBuilds != wantBuilds {
				t.Errorf("Exec.CrackerBuilds = %d, want %d", m.CrackerBuilds, wantBuilds)
			}
			if m.MergedUpdates != merged {
				t.Errorf("Exec.MergedUpdates = %d, want %d", m.MergedUpdates, merged)
			}
		})
	}
}

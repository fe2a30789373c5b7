package holistic

import (
	"testing"

	"holistic/internal/column"
)

var sevenModes = []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}

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

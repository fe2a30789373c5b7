package holistic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/workload"
)

// TestStoreLayoutBytesPerSlot drives one seeded session of reads and
// writes through the Store — under holistic mode with the daemon
// refining throughout — on data whose cracker columns pack their rowids
// into the value words, on the same data plus the two values that make
// that impossible, and on data that starts packed and receives, each
// behind a delete that is still pending, the inserts no window holds:
// MinInt64, MaxInt64 and a value 2^33 away. The one place the layout
// shows is what the index costs: bytes a slot, for the tuples and the
// few percent of slack their inserts opened. FuzzStore's layout seeds
// check the answers on the same three shapes.
func TestStoreLayoutBytesPerSlot(t *testing.T) {
	const domain = 1 << 20
	d := workload.UniformColumn(20_000, domain, 301)
	for _, mode := range []Mode{ModeAdaptive, ModeStochastic, ModeHolistic} {
		for _, tc := range []struct {
			name    string
			base    []int64
			outside []int64 // inserted mid-session
			bytes   int64   // per tuple of a's cracker column at the end
		}{
			{"packs", d, nil, 8},
			{"cannot pack", append(slices.Clone(d[:len(d)-2]), math.MinInt64, math.MaxInt64), nil, 12},
			{"widens", d, []int64{math.MinInt64, math.MaxInt64, 1 << 33}, 12},
		} {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				s := NewStore(storeConfig(mode))
				defer s.Close()
				if err := s.AddIntColumn("a", tc.base); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(303))
				outside := tc.outside
				for step := 0; step < 120; step++ {
					lo := rng.Int63n(domain)
					if _, err := s.CountRange("a", lo, lo+domain/8); err != nil {
						t.Fatal(err)
					}
					if step%4 == 0 {
						if err := s.Insert("a", rng.Int63n(domain)); err != nil {
							t.Fatal(err)
						}
					}
					if step > 40 && step%4 == 3 && len(outside) > 0 {
						// A delete and, with no read in between, the insert:
						// the read that follows merges both.
						if err := s.Delete("a", tc.base[step]); err != nil {
							t.Fatal(err)
						}
						if err := s.Insert("a", outside[0]); err != nil {
							t.Fatal(err)
						}
						outside = outside[1:]
					}
				}
				if _, err := s.CountRange("a", math.MinInt64, math.MaxInt64); err != nil {
					t.Fatal(err)
				}
				if c := s.exec.Load().CrackerIfExists("a"); c.SizeBytes()%tc.bytes != 0 ||
					c.SizeBytes()/tc.bytes < int64(c.Len()) || c.SizeBytes()/tc.bytes > int64(c.Len()+c.Len()/32) {
					t.Fatalf("a's cracker column takes %d bytes for %d tuples, want %d per slot", c.SizeBytes(), c.Len(), tc.bytes)
				}
			})
		}
	}
}

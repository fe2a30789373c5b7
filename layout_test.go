package holistic

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/workload"
)

// attrOracle is the scan one attribute's answers are checked against:
// vals[row] for every row ever created, live[row] until it is deleted.
type attrOracle struct {
	vals []int64
	live []bool
}

func newAttrOracle(base []int64) *attrOracle {
	o := &attrOracle{vals: slices.Clone(base), live: make([]bool, len(base))}
	for i := range o.live {
		o.live[i] = true
	}
	return o
}

func (o *attrOracle) insert(v int64) {
	o.vals, o.live = append(o.vals, v), append(o.live, true)
}

// lowest returns the lowest live row holding v, the one Delete and
// Update resolve to, or -1.
func (o *attrOracle) lowest(v int64) int {
	for row, x := range o.vals {
		if x == v && o.live[row] {
			return row
		}
	}
	return -1
}

func (o *attrOracle) in(lo, hi int64) (rows []uint32, sum, mn, mx int64) {
	for row, v := range o.vals {
		if o.live[row] && v >= lo && v < hi {
			if len(rows) == 0 || v < mn {
				mn = v
			}
			if len(rows) == 0 || v > mx {
				mx = v
			}
			rows = append(rows, uint32(row))
			sum += v
		}
	}
	return rows, sum, mn, mx
}

// checkStoreRange compares every range door, and a conjunction with a
// second attribute, with the oracles.
func checkStoreRange(t *testing.T, s *Store, a, b *attrOracle, lo, hi, bLo, bHi int64) {
	t.Helper()
	rows, sum, mn, mx := a.in(lo, hi)
	if n, err := s.CountRange("a", lo, hi); err != nil || n != len(rows) {
		t.Fatalf("CountRange(%d,%d) = %d, %v; scan %d", lo, hi, n, err, len(rows))
	}
	if got, err := s.SumRange("a", lo, hi); err != nil || got != sum {
		t.Fatalf("SumRange(%d,%d) = %d, %v; scan %d", lo, hi, got, err, sum)
	}
	gMn, gMx, ok, err := s.MinMaxRange("a", lo, hi)
	if err != nil || ok != (len(rows) > 0) || ok && (gMn != mn || gMx != mx) {
		t.Fatalf("MinMaxRange(%d,%d) = [%d,%d] %v, %v; scan [%d,%d] over %d", lo, hi, gMn, gMx, ok, err, mn, mx, len(rows))
	}
	got, err := s.SelectRows("a", lo, hi)
	slices.Sort(got)
	if err != nil || !slices.Equal(got, rows) {
		t.Fatalf("SelectRows(%d,%d) returns %d rows, %v; scan %d, or different ones", lo, hi, len(got), err, len(rows))
	}
	both := 0
	for _, row := range rows {
		if int(row) < len(b.vals) && b.vals[row] >= bLo && b.vals[row] < bHi {
			both++
		}
	}
	if n, err := s.Query().Where("a", lo, hi).Where("b", bLo, bHi).Count(); err != nil || n != both {
		t.Fatalf("Where(a,%d,%d).Where(b,%d,%d).Count() = %d, %v; scan %d", lo, hi, bLo, bHi, n, err, both)
	}
}

// TestStoreLayoutDifferential drives one seeded session of reads and
// writes through the Store — under holistic mode with the daemon
// refining throughout — on data whose cracker columns pack their rowids
// into the value words, on the same data plus the two values that make
// that impossible, and on data that starts packed and receives, each
// behind a delete that is still pending, the inserts no window holds:
// MinInt64, MaxInt64 and a value 2^33 away. Which layout a column uses is invisible here by
// design; what is checked is that every answer is the scan's.
func TestStoreLayoutDifferential(t *testing.T) {
	const domain = 1 << 20
	d := workload.UniformColumn(20_000, domain, 301)
	bBase := workload.UniformColumn(20_000, domain, 302)
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
				if err := s.AddIntColumn("b", bBase); err != nil {
					t.Fatal(err)
				}
				a, b := newAttrOracle(tc.base), newAttrOracle(bBase)
				rng := rand.New(rand.NewSource(303))
				outside := tc.outside
				for step := 0; step < 120; step++ {
					lo := rng.Int63n(domain) - domain/16
					hi := lo + rng.Int63n(domain/4) + 1
					switch rng.Intn(10) {
					case 0:
						lo, hi = math.MinInt64, math.MaxInt64
					case 1:
						lo = math.MinInt64
					case 2:
						hi = math.MaxInt64
					}
					bLo := rng.Int63n(domain / 2)
					checkStoreRange(t, s, a, b, lo, hi, bLo, bLo+domain/2)
					switch step % 4 {
					case 0:
						v := rng.Int63n(domain)
						if err := s.Insert("a", v); err != nil {
							t.Fatal(err)
						}
						a.insert(v)
					case 1:
						row := rng.Intn(len(a.vals))
						if row = a.lowest(a.vals[row]); row < 0 {
							continue
						}
						if err := s.Delete("a", a.vals[row]); err != nil {
							t.Fatal(err)
						}
						a.live[row] = false
					case 2:
						row := rng.Intn(len(a.vals))
						if row = a.lowest(a.vals[row]); row < 0 {
							continue
						}
						v := rng.Int63n(domain)
						if err := s.Update("a", a.vals[row], v); err != nil {
							t.Fatal(err)
						}
						a.vals[row] = v
					case 3:
						// A delete and, with no read in between, the insert:
						// the read that follows merges both, the delete
						// into whichever layout the insert leaves.
						if step > 40 && len(outside) > 0 {
							row := a.lowest(a.vals[rng.Intn(len(a.vals))])
							if row < 0 {
								continue
							}
							if err := s.Delete("a", a.vals[row]); err != nil {
								t.Fatal(err)
							}
							a.live[row] = false
							if err := s.Insert("a", outside[0]); err != nil {
								t.Fatal(err)
							}
							a.insert(outside[0])
							outside = outside[1:]
							checkStoreRange(t, s, a, b, math.MinInt64, math.MaxInt64, 0, domain)
						}
					}
				}
				checkStoreRange(t, s, a, b, math.MinInt64, math.MaxInt64, 0, domain)
				checkStoreRange(t, s, a, b, math.MaxInt64-1, math.MaxInt64, 0, domain)
				// The one place the layout shows: what the index costs —
				// tc.bytes a slot, for the tuples and the few percent of
				// slack their inserts opened.
				if c := s.exec.CrackerIfExists("a"); c.SizeBytes()%tc.bytes != 0 ||
					c.SizeBytes()/tc.bytes < int64(c.Len()) || c.SizeBytes()/tc.bytes > int64(c.Len()+c.Len()/32) {
					t.Fatalf("a's cracker column takes %d bytes for %d tuples, want %d per slot", c.SizeBytes(), c.Len(), tc.bytes)
				}
			})
		}
	}
}

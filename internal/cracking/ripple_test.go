package cracking

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"holistic/internal/column"
	"holistic/internal/model"
)

func TestMergeInsertIntoCrackedColumn(t *testing.T) {
	base := randVals(10_000, 61, 1000)
	c := New("a", base, Config{})
	// Crack into several pieces first.
	for _, v := range []int64{100, 300, 500, 700, 900} {
		c.CrackAt(v)
	}
	pieces := c.Pieces()

	live := append([]int64(nil), base...)
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 200; i++ {
		v := rng.Int63n(1100) - 50 // include values outside the original domain
		c.MergeInsert(v, uint32(len(live)))
		live = append(live, v)
	}
	if c.Len() != len(live) {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(live))
	}
	if c.Pieces() != pieces {
		t.Fatalf("merge changed piece count: %d -> %d", pieces, c.Pieces())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !equalSlices(multiset(live), multiset(c.Snapshot())) {
		t.Fatal("column multiset does not match inserted values")
	}
	// Selects must now see the merged values.
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(1000-lo) + 1
		if got, want := c.SelectRange(lo, hi).Count(), column.CountRange(live, lo, hi); got != want {
			t.Fatalf("[%d,%d): Count = %d, want %d after merges", lo, hi, got, want)
		}
	}
}

func TestMergeInsertWithRows(t *testing.T) {
	base := randVals(1000, 63, 100)
	c := New("a", base, Config{WithRows: true})
	c.CrackAt(50)
	c.MergeInsert(77, 9999)
	_, rows := c.SelectRows(77, 78)
	found := false
	for _, r := range rows {
		if r == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted rowid not returned by select")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeInsertExtendsDomain(t *testing.T) {
	c := New("a", []int64{10, 20, 30}, Config{})
	c.MergeInsert(-5, 0)
	c.MergeInsert(99, 0)
	lo, hi := c.Domain()
	if lo != -5 || hi != 99 {
		t.Errorf("Domain() = %d,%d; want -5,99", lo, hi)
	}
}

func TestMergeDelete(t *testing.T) {
	base := []int64{5, 2, 8, 2, 9, 1}
	c := New("a", base, Config{WithRows: true})
	c.CrackAt(5)
	row, found := c.MergeDelete(2)
	if !found {
		t.Fatal("MergeDelete did not find value 2")
	}
	if base[row] != 2 {
		t.Fatalf("returned rowid %d maps to %d, want 2", row, base[row])
	}
	if c.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// One 2 must remain.
	if got := c.SelectRange(2, 3).Count(); got != 1 {
		t.Fatalf("remaining count of 2 = %d, want 1", got)
	}
}

func TestMergeDeleteAbsent(t *testing.T) {
	c := New("a", []int64{1, 2, 3}, Config{})
	if _, found := c.MergeDelete(42); found {
		t.Fatal("MergeDelete reported deleting an absent value")
	}
	if c.Len() != 3 {
		t.Fatalf("Len() changed on absent delete: %d", c.Len())
	}
}

func TestMergeDeleteLastPiece(t *testing.T) {
	base := randVals(1000, 64, 100)
	c := New("a", base, Config{})
	c.CrackAt(50)
	// Delete a value in the last piece (>= 50).
	var victim int64 = -1
	for _, v := range base {
		if v >= 50 {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("no value >= 50 in base")
	}
	before := c.SelectRange(victim, victim+1).Count()
	if _, found := c.MergeDelete(victim); !found {
		t.Fatal("delete failed")
	}
	if got := c.SelectRange(victim, victim+1).Count(); got != before-1 {
		t.Fatalf("count after delete = %d, want %d", got, before-1)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateAsDeletePlusInsert(t *testing.T) {
	// The paper: "Updates are translated into a deletion that is followed
	// by an insertion."
	base := randVals(5000, 65, 1000)
	c := New("a", base, Config{})
	for _, v := range []int64{250, 500, 750} {
		c.CrackAt(v)
	}
	live := append([]int64(nil), base...)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 100; i++ {
		oldV := live[rng.Intn(len(live))]
		newV := rng.Int63n(1000)
		if _, found := c.MergeDelete(oldV); !found {
			t.Fatalf("value %d should be present", oldV)
		}
		c.MergeInsert(newV, 0)
		for j, v := range live {
			if v == oldV {
				live[j] = newV
				break
			}
		}
	}
	if !equalSlices(multiset(live), multiset(c.Snapshot())) {
		t.Fatal("update stream diverged from reference")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRippleInvariants(t *testing.T) {
	type op struct {
		Insert bool
		Value  uint8
		Crack  uint8
	}
	check := func(seed int64, ops []op) bool {
		base := randVals(500, seed, 256)
		c := New("q", base, Config{})
		live := append([]int64(nil), base...)
		for _, o := range ops {
			c.CrackAt(int64(o.Crack))
			if o.Insert {
				c.MergeInsert(int64(o.Value), 0)
				live = append(live, int64(o.Value))
			} else {
				if _, found := c.MergeDelete(int64(o.Value)); found {
					for j, v := range live {
						if v == int64(o.Value) {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
			}
		}
		if c.CheckInvariants() != nil {
			return false
		}
		return equalSlices(multiset(live), multiset(c.Snapshot()))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeInsertRacesSelects(t *testing.T) {
	// Merges take the column exclusively; selects hold it shared. The sum
	// of counts must be consistent with the values present at that time:
	// every select sees some prefix of the insert stream of its value.
	base := randVals(20_000, 67, 1000)
	c := New("a", base, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			c.MergeInsert(500, 0) // always insert the same value
		}
	}()
	prev := 0
	for i := 0; i < 200; i++ {
		got := c.SelectRange(500, 501).Count()
		if got < prev {
			t.Errorf("count went backwards: %d after %d", got, prev)
		}
		prev = got
	}
	<-done
	want := column.CountRange(base, 500, 501) + 500
	if got := c.SelectRange(500, 501).Count(); got != want {
		t.Fatalf("final count = %d, want %d", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDeleteRowTargetsSpecificTuple: with duplicated values, the
// row-targeted merge removes exactly the requested tuple, and falls
// back to a value match when the tuple is absent.
func TestMergeDeleteRowTargetsSpecificTuple(t *testing.T) {
	c := New("a", []int64{5, 7, 5, 9, 5}, Config{WithRows: true})
	c.SelectRange(6, 8) // crack so the ripple has boundaries to preserve

	if _, found := c.MergeDeleteRow(5, 2); !found {
		t.Fatal("tuple (5, row 2) not found")
	}
	rows := map[uint32]bool{}
	vals := c.Snapshot()
	rids := c.SnapshotRows()
	for i, v := range vals {
		if v == 5 {
			rows[rids[i]] = true
		}
	}
	if rows[2] || !rows[0] || !rows[4] {
		t.Fatalf("rows holding 5 after targeted delete: %v, want {0, 4}", rows)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Absent tuple: falls back to removing some occurrence of the value.
	if _, found := c.MergeDeleteRow(5, 99); !found {
		t.Fatal("value 5 not found on fallback")
	}
	if n := c.SelectRange(5, 6).Count(); n != 1 {
		t.Fatalf("%d fives left, want 1", n)
	}
	// Absent value: reports not found.
	if _, found := c.MergeDeleteRow(42, 0); found {
		t.Fatal("absent value reported found")
	}
}

// TestMergeDeleteRowWithoutRows: on a rowid-free column the targeted
// form degrades to value semantics.
func TestMergeDeleteRowWithoutRows(t *testing.T) {
	c := New("a", []int64{5, 5, 7}, Config{})
	if _, found := c.MergeDeleteRow(5, 1); !found {
		t.Fatal("value not found")
	}
	if n := c.SelectRange(5, 6).Count(); n != 1 {
		t.Fatalf("%d fives left, want 1", n)
	}
}

// TestRippleMergeAllocationFree: a merge walks the boundaries above its
// target into the column's own scratch, so a steady stream of ripple
// inserts and deletes over a cracked column allocates nothing — under
// either layout, and for a target piece anywhere in the column.
func TestRippleMergeAllocationFree(t *testing.T) {
	base := randVals(20_000, 71, 1<<20)
	for _, b := range [][]int64{base, append(append([]int64(nil), base...), math.MinInt64, math.MaxInt64)} {
		c := New("a", b, Config{WithRows: true})
		rng := rand.New(rand.NewSource(72))
		for i := 0; i < 200; i++ {
			c.CrackAt(rng.Int63n(1 << 20))
		}
		row := uint32(len(b))
		c.MergeInsert(0, row) // grow the arrays once
		c.MergeDeleteRow(0, row)
		if avg := testing.AllocsPerRun(200, func() {
			v := rng.Int63n(1 << 20)
			c.MergeInsert(v, row)
			if _, found := c.MergeDeleteRow(v, row); !found {
				t.Fatal("merged tuple not found")
			}
		}); avg != 0 {
			t.Fatalf("packed = %v: a ripple insert + delete allocates %.1f times", c.packed, avg)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// arrayCaps reports len and every array's capacity — vals, and rows
// when kept — under the statistics lock.
func arrayCaps(c *Column) (n int, caps []int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	caps = append(caps, cap(c.vals))
	if c.rows != nil {
		caps = append(caps, cap(c.rows))
	}
	return len(c.vals), caps
}

// TestInsertGrowthBoundedSlack: a merged insert into a full column grows
// every array it keeps to at most len + max(len/growthDivisor,
// growthFloor) — not by Go's append growth, which reserves a quarter of
// the column — for a packed column and one an out-of-window insert
// widens. Inserts of an eighth of N grow each column several
// times, each growth under the exclusive latch while readers crack and
// walk pieces; the column ends up holding what the model holds.
func TestInsertGrowthBoundedSlack(t *testing.T) {
	const n, inserts, domain = 1 << 14, 1 << 11, 1 << 20
	for _, tc := range []struct {
		name   string
		first  int64 // the first inserted value
		arrays int   // arrays the column keeps after the first insert
	}{
		{"packed", 7, 1},
		{"widened", 1 << 40, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := randVals(n, 91, domain)
			c := New("a", base, Config{WithRows: true})
			rng := rand.New(rand.NewSource(92))
			for range 16 {
				c.CrackAt(rng.Int63n(domain))
			}
			m := model.New([]string{"a"}, base)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rr := rand.New(rand.NewSource(int64(93 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Bounds from a small grid, so the readers' cracks
						// stop adding boundaries for the merges to ripple.
						lo := rr.Int63n(64) * (domain / 64)
						hi := lo + domain/16
						rg, rows := c.SelectRows(lo, hi)
						if len(rows) != rg.Count() {
							t.Errorf("[%d,%d): %d rows for %d tuples", lo, hi, len(rows), rg.Count())
							return
						}
						c.ForEachPiece(func(s Segment) {
							if !s.HasRows() {
								t.Error("a walked piece lost its rowids")
							}
						})
					}
				}()
			}

			growths := 0
			_, before := arrayCaps(c)
			for i := range inserts {
				v := rng.Int63n(domain)
				if i == 0 {
					v = tc.first
				}
				row := uint32(n + i)
				c.MergeInsert(v, row)
				m.Put("a", row, v)
				size, caps := arrayCaps(c)
				if len(caps) != tc.arrays {
					t.Fatalf("insert %d: the column keeps %d arrays, want %d", i, len(caps), tc.arrays)
				}
				if caps[0] == before[0] {
					continue
				}
				growths++
				for j, k := range caps {
					if bound := size + max(size/growthDivisor, growthFloor); k > bound {
						t.Fatalf("insert %d: array %d grew to capacity %d for %d tuples, bound %d", i, j, k, size, bound)
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
				before = caps
			}
			close(stop)
			wg.Wait()
			if growths < 2 {
				t.Fatalf("%d inserts into %d tuples grew the column %d times, want several", inserts, n, growths)
			}

			for q := range 200 {
				lo := rng.Int63n(domain)
				hi := lo + 1 + rng.Int63n(domain-lo)
				if q == 0 {
					lo, hi = math.MinInt64, math.MaxInt64
				}
				want := m.Rows([]model.Pred{{Attr: "a", Lo: lo, Hi: hi}})
				rg, rows := c.SelectRows(lo, hi)
				slices.Sort(rows)
				if rg.Count() != len(want) || !slices.Equal(rows, want) {
					t.Fatalf("[%d,%d): count %d, %d rows, want %d, or different ones", lo, hi, rg.Count(), len(rows), len(want))
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

package cracking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"holistic/internal/column"
)

// newSidewaysFixture builds a sideways cracker whose two payloads are
// derived from the base values (p0 = v*2, p1 = -v), so lockstep
// violations are detectable from any segment.
func newSidewaysFixture(t *testing.T, n int, seed int64, cfg Config) (*Column, []int64) {
	t.Helper()
	base := randVals(n, seed, 1<<20)
	p0 := make([]int64, n)
	p1 := make([]int64, n)
	for i, v := range base {
		p0[i] = v * 2
		p1[i] = -v
	}
	return NewSideways("a", base, []string{"p0", "p1"}, [][]int64{p0, p1}, cfg), base
}

// checkAligned verifies payload/value lockstep on a streamed segment.
func checkAligned(t *testing.T, vals []int64, payloads [][]int64) {
	t.Helper()
	for i, v := range vals {
		if payloads[0][i] != v*2 || payloads[1][i] != -v {
			t.Fatalf("payloads out of lockstep at offset %d: v=%d p0=%d p1=%d",
				i, v, payloads[0][i], payloads[1][i])
		}
	}
}

func TestSidewaysSelectPayloads(t *testing.T) {
	c, base := newSidewaysFixture(t, 20_000, 71, Config{})
	rng := rand.New(rand.NewSource(72))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(1 << 20)
		hi := lo + rng.Int63n(1<<20-lo) + 1
		seen := 0
		r := c.SelectPayloads(lo, hi, func(vals []int64, payloads [][]int64) {
			checkAligned(t, vals, payloads)
			for _, v := range vals {
				if v < lo || v >= hi {
					t.Fatalf("value %d outside [%d,%d)", v, lo, hi)
				}
			}
			seen += len(vals)
		})
		if want := column.CountRange(base, lo, hi); seen != want || r.Count() != want {
			t.Fatalf("query %d: streamed %d values, range %d, want %d", q, seen, r.Count(), want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSidewaysPayloadNames(t *testing.T) {
	c, _ := newSidewaysFixture(t, 100, 73, Config{})
	names := c.PayloadNames()
	if len(names) != 2 || names[0] != "p0" || names[1] != "p1" {
		t.Fatalf("PayloadNames() = %v", names)
	}
}

func TestSidewaysSizeBytes(t *testing.T) {
	c, _ := newSidewaysFixture(t, 100, 74, Config{})
	// base 100*8 + two payloads 100*8 each.
	if got := c.SizeBytes(); got != 3*100*8 {
		t.Fatalf("SizeBytes() = %d, want %d", got, 3*100*8)
	}
	// Rowids packed into the value words add nothing.
	c, _ = newSidewaysFixture(t, 100, 74, Config{WithRows: true})
	if got := c.SizeBytes(); got != 3*100*8 {
		t.Fatalf("SizeBytes() with rows = %d, want %d", got, 3*100*8)
	}
}

func TestSidewaysMismatchedPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched payload length did not panic")
		}
	}()
	NewSideways("a", make([]int64, 10), []string{"p"}, [][]int64{make([]int64, 5)}, Config{})
}

func TestSidewaysNameCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("name/column count mismatch did not panic")
		}
	}()
	NewSideways("a", make([]int64, 10), []string{"p", "q"}, [][]int64{make([]int64, 10)}, Config{})
}

func TestSidewaysRippleInsertDelete(t *testing.T) {
	c, _ := newSidewaysFixture(t, 5_000, 75, Config{})
	c.CrackAt(1 << 18)
	c.CrackAt(1 << 19)

	c.MergeInsertSideways(12345, 0, []int64{24690, -12345})
	found := false
	c.SelectPayloads(12345, 12346, func(vals []int64, payloads [][]int64) {
		checkAligned(t, vals, payloads)
		found = true
	})
	if !found {
		t.Fatal("inserted sideways tuple not found")
	}
	if _, ok := c.MergeDelete(12345); !ok {
		t.Fatal("delete of inserted tuple failed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remaining data still aligned.
	c.SelectPayloads(0, 1<<20, func(vals []int64, payloads [][]int64) {
		checkAligned(t, vals, payloads)
	})
}

func TestSidewaysMergeInsertDefaultsZeroPayload(t *testing.T) {
	c, _ := newSidewaysFixture(t, 100, 76, Config{})
	c.MergeInsert(42, 0)
	got := false
	c.SelectPayloads(42, 43, func(vals []int64, payloads [][]int64) {
		for i, v := range vals {
			if v == 42 && payloads[0][i] == 0 && payloads[1][i] == 0 {
				got = true
			}
		}
	})
	if !got {
		t.Fatal("zero-payload insert not observed")
	}
}

func TestSidewaysRefinementKeepsLockstep(t *testing.T) {
	c, _ := newSidewaysFixture(t, 50_000, 77, Config{})
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 200; i++ {
		c.TryRefineAt(rng.Int63n(1<<20), 64)
	}
	c.SelectPayloads(0, 1<<20, func(vals []int64, payloads [][]int64) {
		checkAligned(t, vals, payloads)
	})
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSidewaysLockstepUnderQueries(t *testing.T) {
	check := func(seed int64, bounds []uint32) bool {
		n := 2000
		base := randVals(n, seed, 1<<20)
		p0 := make([]int64, n)
		for i, v := range base {
			p0[i] = v + 7
		}
		c := NewSideways("q", base, []string{"p"}, [][]int64{p0}, Config{})
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, hi := int64(bounds[i]%(1<<20)), int64(bounds[i+1]%(1<<20))
			if lo > hi {
				lo, hi = hi, lo
			}
			okAligned := true
			c.SelectPayloads(lo, hi+1, func(vals []int64, payloads [][]int64) {
				for k, v := range vals {
					if payloads[0][k] != v+7 {
						okAligned = false
					}
				}
			})
			if !okAligned {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

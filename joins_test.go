package holistic

import (
	"math/rand"
	"testing"

	"holistic/internal/workload"
)

// TestUnwalkableKeysStayOutOfTheIndexSpace is the memory rule in
// process: a holistic store that runs only grouped queries over
// dense-eligible keys and joins with a sparse side builds no cracker
// copy of those keys — only of the range attributes its predicates use.
func TestUnwalkableKeysStayOutOfTheIndexSpace(t *testing.T) {
	const rows = 20_000
	rng := rand.New(rand.NewSource(3))
	col := func(domain int64) []int64 {
		out := make([]int64, rows)
		for i := range out {
			out[i] = rng.Int63n(domain)
		}
		return out
	}
	mk := func(cols map[string][]int64) *Store {
		s := NewStore(storeConfig(ModeHolistic))
		for name, vals := range cols {
			if err := s.AddIntColumn(name, vals); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	l := mk(map[string][]int64{"x": col(1 << 20), "g0": col(64), "g1": col(8), "k": col(1 << 14)})
	r := mk(map[string][]int64{"y": col(1 << 20), "rk": col(1 << 14)})
	defer l.Close()
	defer r.Close()

	for q := 0; q < 20; q++ {
		lo := rng.Int63n(1 << 19)
		if _, err := l.Query().Where("x", lo, lo+1<<18).GroupBy("g0").Aggregate(Count(), Sum("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Query().GroupBy("g1", "g0").Aggregate(Count()); err != nil {
			t.Fatal(err)
		}
		// The left side selects ~1/16 of its rows: too sparse to walk.
		if _, err := l.Query().Where("x", lo, lo+1<<16).Join(r.Query(), "k", "rk").Count(); err != nil {
			t.Fatal(err)
		}
	}
	for _, side := range []struct {
		s     *Store
		attrs []string
	}{{l, []string{"g0", "g1", "k"}}, {r, []string{"rk"}}} {
		for _, attr := range side.attrs {
			if side.s.exec.Load().CrackerIfExists(attr) != nil {
				t.Errorf("key %s has a cracker copy; no plan could walk it", attr)
			}
		}
	}
	if l.exec.Load().CrackerIfExists("x") == nil {
		t.Error("the driving range attribute x has no cracker")
	}
}

// TestJoinBuilderMisc covers the public builder's resolution rules:
// ambiguous and unknown attributes, closed stores.
func TestJoinBuilderMisc(t *testing.T) {
	l, r := NewStore(storeConfig(ModeAdaptive)), NewStore(storeConfig(ModeAdaptive))
	defer r.Close()
	for _, c := range []struct {
		s    *Store
		name string
	}{{l, "k"}, {l, "v"}, {r, "rk"}, {r, "w"}} {
		if err := c.s.AddIntColumn(c.name, workload.UniformColumn(300, 100, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Query().Join(r.Query(), "k", "rk").Sum("nope"); err == nil {
		t.Error("unknown sum attribute did not error")
	}
	// "v" only on the left, "w" only on the right: both resolve.
	if _, err := l.Query().Join(r.Query(), "k", "rk").Sum("v"); err != nil {
		t.Error(err)
	}
	// An attribute present on both sides is ambiguous.
	l2 := NewStore(Config{Mode: ModeScan})
	defer l2.Close()
	if err := l2.AddIntColumn("w", []int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Query().Join(r.Query(), "w", "rk").Sum("w"); err == nil {
		t.Error("ambiguous attribute did not error")
	}
	l.Close()
	if _, err := l.Query().Join(r.Query(), "k", "rk").Count(); err == nil {
		t.Error("join on a closed store did not error")
	}
}

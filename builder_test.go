package holistic

import "testing"

// TestQueryBuilderMisc covers builder-level behaviour: no predicates,
// duplicate-attribute intersection, closed stores.
func TestQueryBuilderMisc(t *testing.T) {
	s, bases := buildStore(t, ModeAdaptive, 2, 2_000, 1<<16)
	if _, err := s.Query().Count(); err == nil {
		t.Error("query without predicates did not error")
	}
	n, err := s.Query().
		Where("a", 100, 60_000).
		Where("a", 2_000, 65_000).
		Where("b", 0, 1<<16).
		Count()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i, v := range bases[0] {
		if v >= 2_000 && v < 60_000 && bases[1][i] >= 0 {
			want++
		}
	}
	if n != want {
		t.Fatalf("intersected count = %d, want %d", n, want)
	}
	s.Close()
	if _, err := s.Query().Where("a", 0, 10).Count(); err == nil {
		t.Error("query on a closed store did not error")
	}
}

// TestGroupedQueryBuilderMisc covers builder-level grouped behaviour on
// the public API: whole-relation grouping, error paths, closed stores.
func TestGroupedQueryBuilderMisc(t *testing.T) {
	s, bases := buildStore(t, ModeAdaptive, 2, 2_000, 64)
	res, err := s.Query().GroupBy("a").Aggregate(Count(), Sum("b"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	sums := map[int64]int64{}
	for i, v := range bases[0] {
		counts[v]++
		sums[v] += bases[1][i]
	}
	if res.Len() != len(counts) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(counts))
	}
	for g := 0; g < res.Len(); g++ {
		k := res.Keys[0][g]
		if g > 0 && k <= res.Keys[0][g-1] {
			t.Fatalf("keys not strictly ascending at group %d", g)
		}
		if res.Aggs[0][g] != counts[k] || res.Aggs[1][g] != sums[k] {
			t.Fatalf("group %d (key %d): (%d, %d), want (%d, %d)",
				g, k, res.Aggs[0][g], res.Aggs[1][g], counts[k], sums[k])
		}
	}
	if res.KeyAttrs[0] != "a" {
		t.Errorf("KeyAttrs = %v", res.KeyAttrs)
	}
	if _, err := s.Query().GroupBy().Aggregate(Count()); err == nil {
		t.Error("GroupBy with no attributes did not error")
	}
	if _, err := s.Query().GroupBy("a").Aggregate(); err == nil {
		t.Error("Aggregate with no aggregates did not error")
	}
	if _, err := s.Query().GroupBy("nope").Aggregate(Count()); err == nil {
		t.Error("unknown group-by attribute did not error")
	}
	if _, _, err := s.Query().Where("a", 0, 10).Min("nope"); err == nil {
		t.Error("unknown Min attribute did not error")
	}
	// Min/Max single-predicate fast path agrees with MinMaxRange.
	mn, ok, err := s.Query().Where("a", 5, 40).Min("a")
	if err != nil {
		t.Fatal(err)
	}
	wantMn, _, wantOk, err := s.MinMaxRange("a", 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if ok != wantOk || (ok && mn != wantMn) {
		t.Fatalf("Min fast path = (%d, %v), MinMaxRange = (%d, %v)", mn, ok, wantMn, wantOk)
	}
	s.Close()
	if _, err := s.Query().GroupBy("a").Aggregate(Count()); err == nil {
		t.Error("grouped query on a closed store did not error")
	}
	if _, _, err := s.Query().Where("a", 0, 10).Min("a"); err == nil {
		t.Error("Min on a closed store did not error")
	}
}

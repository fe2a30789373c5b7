package avl

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get on empty tree reported ok")
	}
	if _, _, ok := tr.Floor(5); ok {
		t.Error("Floor on empty tree reported ok")
	}
	if _, _, ok := tr.Ceiling(5); ok {
		t.Error("Ceiling on empty tree reported ok")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree reported ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree reported ok")
	}
	if tr.Delete(1) {
		t.Error("Delete on empty tree reported true")
	}
	if tr.Height() != 0 {
		t.Errorf("Height() = %d, want 0", tr.Height())
	}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		if !tr.Insert(i, i*10) {
			t.Fatalf("Insert(%d) reported replacement on fresh key", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", tr.Len())
	}
	for i := int64(0); i < 100; i++ {
		v, ok := tr.Get(i)
		if !ok || v.(int64) != i*10 {
			t.Fatalf("Get(%d) = %v, %v; want %d, true", i, v, ok, i*10)
		}
	}
	if _, ok := tr.Get(100); ok {
		t.Error("Get(100) reported ok for absent key")
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New()
	tr.Insert(7, "old")
	if tr.Insert(7, "new") {
		t.Error("second Insert of same key reported fresh insertion")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
	v, _ := tr.Get(7)
	if v.(string) != "new" {
		t.Fatalf("Get(7) = %v, want new", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	keys := []int64{50, 30, 70, 20, 40, 60, 80, 10, 25, 35, 45}
	for _, k := range keys {
		tr.Insert(k, k)
	}
	for i, k := range keys {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) reported absent", k)
		}
		if tr.Delete(k) {
			t.Fatalf("second Delete(%d) reported present", k)
		}
		if !tr.checkInvariants() {
			t.Fatalf("invariants violated after deleting %d", k)
		}
		if got, want := tr.Len(), len(keys)-i-1; got != want {
			t.Fatalf("Len() = %d, want %d", got, want)
		}
	}
}

func TestFloorCeiling(t *testing.T) {
	tr := New()
	for _, k := range []int64{10, 20, 30, 40} {
		tr.Insert(k, k)
	}
	cases := []struct {
		probe           int64
		floor, ceiling  int64
		floorOK, ceilOK bool
	}{
		{5, 0, 10, false, true},
		{10, 10, 10, true, true},
		{15, 10, 20, true, true},
		{25, 20, 30, true, true},
		{40, 40, 40, true, true},
		{45, 40, 0, true, false},
	}
	for _, c := range cases {
		fk, _, fok := tr.Floor(c.probe)
		if fok != c.floorOK || (fok && fk != c.floor) {
			t.Errorf("Floor(%d) = %d,%v; want %d,%v", c.probe, fk, fok, c.floor, c.floorOK)
		}
		ck, _, cok := tr.Ceiling(c.probe)
		if cok != c.ceilOK || (cok && ck != c.ceiling) {
			t.Errorf("Ceiling(%d) = %d,%v; want %d,%v", c.probe, ck, cok, c.ceiling, c.ceilOK)
		}
	}
}

func TestSuccessorPredecessor(t *testing.T) {
	tr := New()
	for _, k := range []int64{10, 20, 30} {
		tr.Insert(k, k)
	}
	if k, _, ok := tr.Successor(10); !ok || k != 20 {
		t.Errorf("Successor(10) = %d,%v; want 20,true", k, ok)
	}
	if k, _, ok := tr.Successor(5); !ok || k != 10 {
		t.Errorf("Successor(5) = %d,%v; want 10,true", k, ok)
	}
	if _, _, ok := tr.Successor(30); ok {
		t.Error("Successor(30) reported ok past max")
	}
	if k, _, ok := tr.Predecessor(30); !ok || k != 20 {
		t.Errorf("Predecessor(30) = %d,%v; want 20,true", k, ok)
	}
	if k, _, ok := tr.Predecessor(35); !ok || k != 30 {
		t.Errorf("Predecessor(35) = %d,%v; want 30,true", k, ok)
	}
	if _, _, ok := tr.Predecessor(10); ok {
		t.Error("Predecessor(10) reported ok below min")
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	for _, k := range []int64{42, 7, 99, -3} {
		tr.Insert(k, k)
	}
	if k, _, ok := tr.Min(); !ok || k != -3 {
		t.Errorf("Min() = %d,%v; want -3,true", k, ok)
	}
	if k, _, ok := tr.Max(); !ok || k != 99 {
		t.Errorf("Max() = %d,%v; want 99,true", k, ok)
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, k := range perm {
		tr.Insert(int64(k), k)
	}
	keys := tr.Keys()
	if len(keys) != 500 {
		t.Fatalf("len(Keys()) = %d, want 500", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Keys() not sorted ascending")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := int64(0); i < 10; i++ {
		tr.Insert(i, i)
	}
	var visited int
	tr.Ascend(func(k int64, _ Value) bool {
		visited++
		return k < 4
	})
	if visited != 5 {
		t.Fatalf("visited %d nodes, want 5 (stops when key 4 returns false)", visited)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 20; i++ {
		tr.Insert(i*10, i)
	}
	var got []int64
	tr.AscendRange(35, 90, func(k int64, _ Value) bool {
		got = append(got, k)
		return true
	})
	want := []int64{40, 50, 60, 70, 80}
	if len(got) != len(want) {
		t.Fatalf("AscendRange returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AscendRange returned %v, want %v", got, want)
		}
	}
}

func TestAscendAfter(t *testing.T) {
	tr := New()
	keys := []int64{math.MinInt64, -7, 0, 10, 20, 30, math.MaxInt64}
	for _, k := range keys {
		tr.Insert(k, k)
	}
	for _, probe := range []int64{math.MinInt64, -8, -7, 5, 30, math.MaxInt64 - 1, math.MaxInt64} {
		var got, want []int64
		tr.AscendAfter(probe, func(k int64, _ Value) bool {
			got = append(got, k)
			return true
		})
		for _, k := range keys {
			if k > probe {
				want = append(want, k)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("AscendAfter(%d) = %v, want %v", probe, got, want)
		}
	}
	visited := 0
	tr.AscendAfter(-7, func(k int64, _ Value) bool {
		visited++
		return k < 10
	})
	if visited != 2 {
		t.Errorf("visited %d nodes after -7, want 2 (stops when key 10 returns false)", visited)
	}
}

func TestBalanceHeightBound(t *testing.T) {
	// Sequential insertion is the classic worst case for unbalanced BSTs;
	// an AVL tree must stay within 1.44*log2(n+2).
	tr := New()
	const n = 1 << 14
	for i := int64(0); i < n; i++ {
		tr.Insert(i, nil)
	}
	if !tr.checkInvariants() {
		t.Fatal("invariants violated after sequential insertion")
	}
	if h := tr.Height(); h > 21 { // 1.44*log2(2^14) ~ 20.2
		t.Fatalf("Height() = %d exceeds AVL bound for n=%d", h, n)
	}
}

// modelOp is a randomized operation applied to both the tree and a
// reference map in the property test below.
type modelOp struct {
	Insert bool
	Key    int16 // small domain to force collisions and deletions of present keys
}

func TestQuickTreeMatchesReferenceModel(t *testing.T) {
	check := func(ops []modelOp) bool {
		tr := New()
		ref := map[int64]int64{}
		for i, op := range ops {
			k := int64(op.Key)
			if op.Insert {
				tr.Insert(k, int64(i))
				ref[k] = int64(i)
			} else {
				delete(ref, k)
				tr.Delete(k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		if !tr.checkInvariants() {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got.(int64) != v {
				return false
			}
		}
		// Floor/Ceiling agree with a sorted view of the reference keys.
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for probe := int64(-5); probe < 40000; probe += 997 {
			i := sort.Search(len(keys), func(i int) bool { return keys[i] > probe })
			fk, _, fok := tr.Floor(probe)
			if (i > 0) != fok || (fok && fk != keys[i-1]) {
				return false
			}
			j := sort.Search(len(keys), func(i int) bool { return keys[i] >= probe })
			ck, _, cok := tr.Ceiling(probe)
			if (j < len(keys)) != cok || (cok && ck != keys[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHeightLogarithmic(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		n := 1000 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			tr.Insert(rng.Int63n(1<<30), nil)
		}
		// log2(3000) ~ 11.6; AVL bound 1.44*log2(n+2) < 17.
		return tr.Height() <= 17 && tr.checkInvariants()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, b.N)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	b.ResetTimer()
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], nil)
	}
}

func BenchmarkFloor(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<16; i++ {
		tr.Insert(rng.Int63n(1<<30), nil)
	}
	probes := make([]int64, 4096)
	for i := range probes {
		probes[i] = rng.Int63n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Floor(probes[i&4095])
	}
}

func TestFloorWhere(t *testing.T) {
	tr := New()
	// Keys and positions ascend together, mirroring the cracker index.
	positions := map[int64]int{10: 0, 20: 100, 30: 250, 40: 400}
	for k, pos := range positions {
		tr.Insert(k, pos)
	}
	find := func(pos int) (int64, bool) {
		var key int64
		found := false
		tr.FloorWhere(func(_ int64, v Value) bool {
			return v.(int) <= pos
		}, func(k int64, _ Value) {
			key = k
			found = true
		})
		return key, found
	}
	cases := []struct {
		pos int
		key int64
		ok  bool
	}{
		{0, 10, true},
		{99, 10, true},
		{100, 20, true},
		{300, 30, true},
		{400, 40, true},
		{99999, 40, true},
		{-1, 0, false},
	}
	for _, c := range cases {
		key, ok := find(c.pos)
		if ok != c.ok || (ok && key != c.key) {
			t.Errorf("FloorWhere(pos=%d) = %d,%v; want %d,%v", c.pos, key, ok, c.key, c.ok)
		}
	}
}

func TestFloorWhereEmptyTree(t *testing.T) {
	tr := New()
	called := false
	tr.FloorWhere(func(int64, Value) bool { return true }, func(int64, Value) { called = true })
	if called {
		t.Error("FloorWhere visited a node in an empty tree")
	}
}

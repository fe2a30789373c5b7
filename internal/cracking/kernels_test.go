package cracking

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// crackInTwoInPlace is the classic two-cursor (Hoare) crack-in-two, kept
// as the reference crackInTwo is checked against: values < pivot end up
// before values >= pivot, and the index of the first value >= pivot is
// returned.
func crackInTwoInPlace(vals []int64, lo, hi int, pivot int64) int {
	i, j := lo, hi-1
	for {
		for i <= j && vals[i] < pivot {
			i++
		}
		for i <= j && vals[j] >= pivot {
			j--
		}
		if i >= j {
			return i
		}
		vals[i], vals[j] = vals[j], vals[i]
		i++
		j--
	}
}

// checkPartition verifies the crack-in-two post-condition on vals[lo:hi]:
// values < pivot occupy [lo, mid), values >= pivot occupy [mid, hi).
func checkPartition(t testing.TB, vals []int64, lo, hi, mid int, pivot int64) {
	t.Helper()
	if mid < lo || mid > hi {
		t.Fatalf("mid %d outside [%d, %d]", mid, lo, hi)
	}
	for i := lo; i < mid; i++ {
		if vals[i] >= pivot {
			t.Fatalf("vals[%d] = %d >= pivot %d on the left side", i, vals[i], pivot)
		}
	}
	for i := mid; i < hi; i++ {
		if vals[i] < pivot {
			t.Fatalf("vals[%d] = %d < pivot %d on the right side", i, vals[i], pivot)
		}
	}
}

// multiset returns a sorted copy for permutation comparison.
func multiset(vals []int64) []int64 {
	out := append([]int64(nil), vals...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSlices(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randVals(n int, seed int64, domain int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

func iota32(n int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = uint32(i)
	}
	return rows
}

// crackFunc is the signature of crackInTwo; inParallel adapts the
// parallel driver to it.
type crackFunc func(vals []int64, rows []uint32, lo, hi int, pivot int64) int

func inParallel(workers int) crackFunc {
	return func(vals []int64, rows []uint32, lo, hi int, pivot int64) int {
		return parallelCrack(vals, rows, lo, hi, pivot, workers)
	}
}

// kernelCase runs crack on a copy of orig[lo:hi], with rowids attached
// when withRows, and checks everything a crack promises: the reference's
// split position, the partition property, the multiset, nothing touched
// outside [lo, hi), and rowids still describing their value.
func kernelCase(t testing.TB, orig []int64, lo, hi int, pivot int64, withRows bool, crack crackFunc) {
	t.Helper()
	vals := append([]int64(nil), orig...)
	var rows []uint32
	if withRows {
		rows = iota32(len(vals))
	}
	ref := append([]int64(nil), orig...)
	want := crackInTwoInPlace(ref, lo, hi, pivot)

	mid := crack(vals, rows, lo, hi, pivot)
	if mid != want {
		t.Fatalf("split at %d, reference splits at %d", mid, want)
	}
	checkPartition(t, vals, lo, hi, mid, pivot)
	if !equalSlices(multiset(orig[lo:hi]), multiset(vals[lo:hi])) {
		t.Fatal("partition changed the multiset of values")
	}
	for i := range vals {
		if (i < lo || i >= hi) && vals[i] != orig[i] {
			t.Fatalf("vals[%d] changed outside the cracked range", i)
		}
		if rows != nil && orig[rows[i]] != vals[i] {
			t.Fatalf("rows[%d] = %d points at %d but the value is %d", i, rows[i], orig[rows[i]], vals[i])
		}
	}
}

// kernelLengths runs from the empty piece through a few values to
// lengths either side of several multiples of 128 and on to pieces past
// L1 and L2.
func kernelLengths() []int {
	return []int{0, 1, 2, 3,
		127, 128, 129, 255, 256, 257, 383, 384, 385, 511, 512, 513, 639, 640, 641,
		10_000, 65_541}
}

// TestCrackInTwoLengthsAndPivots runs every kernel length, value shape,
// pivot and rowid setting through crackInTwo and through parallelCrack at
// 2, 3 and 4 workers; above 1000 values the parallel crack runs at the
// middle pivot only, to keep the table quick.
func TestCrackInTwoLengthsAndPivots(t *testing.T) {
	const domain = 1000
	kernels := []struct {
		name  string
		crack crackFunc
	}{{"serial", crackInTwo}, {"parallel2", inParallel(2)}, {"parallel3", inParallel(3)}, {"parallel4", inParallel(4)}}
	for _, n := range kernelLengths() {
		uniform := randVals(n, int64(n)+1, domain)
		allEqual := make([]int64, n)
		for i := range allEqual {
			allEqual[i] = 7
		}
		for name, orig := range map[string][]int64{"uniform": uniform, "all-equal": allEqual} {
			pivots := []int64{-1, 0, 7, 8, domain / 2, domain - 1, domain, math.MinInt64, math.MaxInt64}
			for _, pivot := range pivots {
				for _, withRows := range []bool{false, true} {
					for i, k := range kernels {
						if i > 0 && n > 1000 && pivot != domain/2 {
							continue
						}
						t.Run(fmt.Sprintf("%s/n=%d/pivot=%d/rows=%v/kernel=%s", name, n, pivot, withRows, k.name), func(t *testing.T) {
							kernelCase(t, orig, 0, n, pivot, withRows, k.crack)
						})
					}
				}
			}
		}
	}
}

func TestCrackInTwoSubrange(t *testing.T) {
	orig := randVals(5000, 3, 100)
	for _, span := range [][2]int{{200, 700}, {1, 4999}, {300, 300}, {17, 273}, {4000, 5000}} {
		lo, hi := span[0], span[1]
		kernelCase(t, orig, lo, hi, 55, true, crackInTwo)
	}
}

// TestCrackInTwoDegeneratePieces cracks the pieces at which the loop's
// two indices never part (every value below the pivot: every swap is a
// self-swap) or never meet again (none below it), a piece of one
// repeated value cracked at that value, and a single value, in both
// layouts: values beside a rowid array, and packed words whose low half
// is the rowid.
func TestCrackInTwoDegeneratePieces(t *testing.T) {
	below := randVals(1000, 8, 1000)
	repeated := make([]int64, 1000)
	for i := range repeated {
		repeated[i] = 7
	}
	for _, c := range []struct {
		name   string
		vals   []int64
		pivots []int64
	}{
		{"all-below", below, []int64{1000, 5000}},
		{"none-below", below, []int64{0, -5}},
		{"repeated", repeated, []int64{7}},
		{"single", []int64{42}, []int64{41, 42, 43}},
	} {
		for _, pivot := range c.pivots {
			t.Run(fmt.Sprintf("%s/pivot=%d/wide", c.name, pivot), func(t *testing.T) {
				kernelCase(t, c.vals, 0, len(c.vals), pivot, true, crackInTwo)
			})
			t.Run(fmt.Sprintf("%s/pivot=%d/packed", c.name, pivot), func(t *testing.T) {
				ref, _ := refFor(slices.Min(c.vals), slices.Max(c.vals))
				lay := packedAt(ref)
				words := make([]int64, len(c.vals))
				for i, v := range c.vals {
					words[i] = lay.word(v, uint32(i))
				}
				wordPivot, all := lay.pivot(pivot)
				if all {
					t.Fatalf("pivot %d past the window of ref %d", pivot, ref)
				}
				kernelCase(t, words, 0, len(words), wordPivot, false, func(vals []int64, rows []uint32, lo, hi int, pivot int64) int {
					mid := crackInTwo(vals, rows, lo, hi, pivot)
					for i, w := range vals {
						if row := uint32(w); lay.value(w) != c.vals[row] {
							t.Fatalf("word %d carries rowid %d and value %d, but row %d holds %d", i, row, lay.value(w), row, c.vals[row])
						}
					}
					return mid
				})
			})
		}
	}
}

// extremes are the values and pivots on which a subtraction-based
// comparison goes wrong: their pairwise differences overflow int64.
var extremes = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}

func TestLessIsExactOverFullInt64(t *testing.T) {
	for _, v := range extremes {
		for _, p := range extremes {
			want := uint8(0)
			if v < p {
				want = 1
			}
			if got := less(v, uint64(p)^signBit); got != want {
				t.Errorf("less(%d, %d) = %d, want %d", v, p, got, want)
			}
		}
	}
}

func TestCrackInTwoFullInt64Domain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{128, 515, 10_000} {
		orig := make([]int64, n)
		for i := range orig {
			if rng.Intn(2) == 0 {
				orig[i] = extremes[rng.Intn(len(extremes))]
			} else {
				orig[i] = int64(rng.Uint64())
			}
		}
		for _, pivot := range extremes {
			kernelCase(t, orig, 0, n, pivot, true, crackInTwo)
		}
	}
}

func TestCrackInTwoFourMi(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions 4 Mi values")
	}
	n := 4 << 20
	orig := randVals(n, 44, 1<<30)
	kernelCase(t, orig, 0, n, 1<<29, true, crackInTwo)
}

func TestParallelCrack(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for _, n := range []int{0, 1, 3, 7, 128, 1000, 100_003} {
			orig := randVals(n, int64(workers*1000+n), 1<<20)
			for _, pivot := range []int64{-5, 1 << 17, 1 << 19, 1 << 21} {
				t.Run(fmt.Sprintf("workers=%d/n=%d/pivot=%d", workers, n, pivot), func(t *testing.T) {
					kernelCase(t, orig, 0, n, pivot, true, inParallel(workers))
				})
			}
		}
	}
}

// TestParallelCrackSkewedSlices makes the per-slice splits as unequal as
// they get — each slice entirely below or entirely above the pivot — so
// the merge swaps whole slices and skips empty runs.
func TestParallelCrackSkewedSlices(t *testing.T) {
	const n, workers = 4000, 4
	for _, layout := range [][workers]bool{
		{true, false, true, false}, {false, false, true, true}, {true, true, true, false}, {false, true, true, true},
	} {
		orig := make([]int64, n)
		for i := range orig {
			if layout[i*workers/n] {
				orig[i] = 100 + int64(i)
			} else {
				orig[i] = -int64(i) - 1
			}
		}
		kernelCase(t, orig, 0, n, 0, true, inParallel(workers))
	}
}

func TestParallelCrackSubrange(t *testing.T) {
	n := 50_000
	orig := randVals(n, 21, 1000)
	lo, hi := 1000, n-1000
	for _, workers := range []int{2, 3, 4} {
		kernelCase(t, orig, lo, hi, 500, true, inParallel(workers))
	}
}

func TestQuickKernelsAgree(t *testing.T) {
	check := func(orig []int64, pivot int64, workers uint8) bool {
		n := len(orig)
		kernelCase(t, orig, 0, n, pivot, true, crackInTwo)
		kernelCase(t, orig, 0, n, pivot, false, inParallel(int(workers%8)+1))
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPartition feeds the kernel arbitrary lengths, pivots and values;
// the input bytes are read as little-endian int64s and every eighth value
// is replaced by an extreme so the overflow cases are always in play.
func FuzzPartition(f *testing.F) {
	seed := make([]byte, 2120)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed, int64(0), uint8(0))
	f.Add(seed[:1024], int64(math.MinInt64), uint8(3))
	f.Add(seed[:24], int64(math.MaxInt64), uint8(1))
	f.Add([]byte{}, int64(1), uint8(2))
	// Packed words, as a column with rowids stores them: few keys, so most
	// words differ from their neighbours and from the pivot only in the
	// rowid bits, and the pivot is a key with no rowid, as cracks use.
	packed := make([]byte, 2120)
	for i := 0; i < len(packed)/8; i++ {
		binary.LittleEndian.PutUint64(packed[8*i:], uint64(int64(i%3-1)<<32|int64(i)))
	}
	f.Add(packed, int64(0), uint8(1))
	f.Add(packed, int64(1)<<32, uint8(2))
	f.Add(packed, int64(-1)<<32, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, pivot int64, workers uint8) {
		orig := make([]int64, len(data)/8)
		for i := range orig {
			orig[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			if i%8 == 7 {
				orig[i] = extremes[uint64(orig[i])%uint64(len(extremes))]
			}
		}
		n := len(orig)
		kernelCase(t, orig, 0, n, pivot, true, crackInTwo)
		kernelCase(t, orig, 0, n, pivot, true, inParallel(int(workers%8)+1))
	})
}

func TestCrackInTwoAllocationFree(t *testing.T) {
	orig := randVals(10_000, 77, 1<<20)
	vals := make([]int64, len(orig))
	rows := iota32(len(orig))
	if allocs := testing.AllocsPerRun(20, func() {
		copy(vals, orig)
		crackInTwo(vals, rows, 0, len(vals), 1<<19)
	}); allocs != 0 {
		t.Fatalf("crackInTwo allocates: %v allocs/op", allocs)
	}
}

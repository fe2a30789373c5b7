package cracking

import (
	"math/rand"
	"testing"
)

// BenchmarkPartition times one crack-in-two of a uniform piece at a piece
// that fits L1/L2 (8 Ki), L2/L3 (256 Ki) and none of them (4 Mi), as each
// layout stores it: values alone (norows), values beside a rowid array
// (rows), and values and rowids in one array of packed words (packed).
// The median cell cracks at the piece's median; the random cell at a
// fresh pivot each iteration from a seeded RNG, so no one split speaks
// for the kernel. Bytes are what the layout keeps per tuple; each
// iteration restores the piece outside the timer.
func BenchmarkPartition(b *testing.B) {
	const domain = 1 << 30
	for _, size := range []struct {
		name string
		n    int
	}{{"8Ki", 8 << 10}, {"256Ki", 256 << 10}, {"4Mi", 4 << 20}} {
		src := randVals(size.n, 1, domain)
		srcRows := iota32(size.n)
		ref, _ := refFor(0, domain-1)
		lay := packedAt(ref)
		srcWords := make([]int64, size.n)
		for i, v := range src {
			srcWords[i] = lay.word(v, uint32(i))
		}
		vals := make([]int64, size.n)
		for _, c := range []struct {
			name  string
			src   []int64
			rows  []uint32
			bytes int
			lay   layout
		}{
			{"rows", src, make([]uint32, size.n), 12, layout{}},
			{"norows", src, nil, 8, layout{}},
			{"packed", srcWords, nil, 8, lay},
		} {
			for _, cell := range []string{"median", "random"} {
				random := cell == "random"
				b.Run(size.name+"/"+c.name+"/"+cell, func(b *testing.B) {
					rng := rand.New(rand.NewSource(2))
					b.SetBytes(int64(size.n * c.bytes))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(vals, c.src)
						copy(c.rows, srcRows)
						v := int64(domain / 2)
						if random {
							v = rng.Int63n(domain)
						}
						pivot, _ := c.lay.pivot(v)
						b.StartTimer()
						if mid := crackInTwo(vals, c.rows, 0, size.n, pivot); !random && (mid == 0 || mid == size.n) {
							b.Fatalf("median crack split at %d of %d", mid, size.n)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFirstTouch times what the query that creates a cracker pays at
// 4 Mi values with rowids: build then crack, against the fused build.
// Iterations rotate over eight base columns, as a session over eight
// attributes does, so each build reads its base from memory, not from a
// cache the previous iteration warmed. The NewCracked cases differ in
// what the data lets the build do. The 2^30 domain packs. One value far
// outside it makes the column wide: from the start when the sample sees
// it (position 0), after one abandoned block when it sits in the first
// block unsampled, and — the worst case — after a whole abandoned pass
// when it is the last value.
// New/wide builds that column with no bounds, as every CCGI chunk whose
// values span more than 2^32 is built.
func BenchmarkFirstTouch(b *testing.B) {
	const n = 4 << 20
	bases := make([][]int64, 8)
	for a := range bases {
		bases[a] = randVals(n, int64(2+a), 1<<30)
	}
	lo, hi := int64(300<<20), int64(600<<20)
	cfg := Config{}
	b.Run("New+Select", func(b *testing.B) {
		b.SetBytes(n * 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New("a", bases[i%len(bases)], cfg).SelectRange(lo, hi)
		}
	})
	b.Run("New/wide", func(b *testing.B) {
		for _, base := range bases {
			base[0] ^= 1 << 50
			defer func() { base[0] ^= 1 << 50 }()
		}
		b.SetBytes(n * 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New("a", bases[i%len(bases)], cfg)
		}
	})
	for _, c := range []struct {
		name    string
		outlier int // position of the value outside the window; -1: none
	}{
		{"NewCracked", -1},
		{"NewCracked/wide-sampled", 0},
		{"NewCracked/wide-first-block", 1},
		{"NewCracked/wide-last-block", n - 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.outlier >= 0 {
				for _, base := range bases {
					base[c.outlier] ^= 1 << 50
					defer func() { base[c.outlier] ^= 1 << 50 }()
				}
			}
			b.SetBytes(n * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := NewCracked("a", bases[i%len(bases)], cfg, lo, hi)
				if col.SelectRange(lo, hi); col.packed != (c.outlier < 0) {
					b.Fatalf("outlier at %d but packed = %v", c.outlier, col.packed)
				}
			}
		})
	}
}

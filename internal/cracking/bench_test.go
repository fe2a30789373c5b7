package cracking

import "testing"

// BenchmarkPartition times one crack-in-two of a uniform piece at its
// median — the worst case for a branchy kernel — at a piece that fits L1/L2
// (8 Ki), L2/L3 (256 Ki) and none of them (4 Mi). Bytes are the piece's
// values plus rowids; each iteration restores the piece outside the timer.
func BenchmarkPartition(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"8Ki", 8 << 10}, {"256Ki", 256 << 10}, {"4Mi", 4 << 20}} {
		src := randVals(size.n, 1, 1<<30)
		srcRows := iota32(size.n)
		vals := make([]int64, size.n)
		for _, withRows := range []bool{true, false} {
			name, bytes := size.name+"/norows", int64(size.n)*8
			var rows []uint32
			if withRows {
				name, bytes, rows = size.name+"/rows", int64(size.n)*12, make([]uint32, size.n)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(bytes)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(vals, src)
					copy(rows, srcRows)
					b.StartTimer()
					crackInTwo(vals, rows, nil, 0, size.n, 1<<29)
				}
			})
		}
	}
}

// BenchmarkFirstTouch times what the query that creates a cracker pays at
// 4 Mi values with rowids: build then crack, against the fused build.
// Iterations rotate over eight base columns, as a session over eight
// attributes does, so each build reads its base from memory, not from a
// cache the previous iteration warmed.
func BenchmarkFirstTouch(b *testing.B) {
	const n = 4 << 20
	bases := make([][]int64, 8)
	for a := range bases {
		bases[a] = randVals(n, int64(2+a), 1<<30)
	}
	lo, hi := int64(300<<20), int64(600<<20)
	cfg := Config{WithRows: true}
	b.Run("New+Select", func(b *testing.B) {
		b.SetBytes(n * 12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New("a", bases[i%len(bases)], cfg).SelectRange(lo, hi)
		}
	})
	b.Run("NewCracked", func(b *testing.B) {
		b.SetBytes(n * 12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewCracked("a", bases[i%len(bases)], cfg, lo, hi).SelectRange(lo, hi)
		}
	})
}

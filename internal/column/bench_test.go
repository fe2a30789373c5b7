package column

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// BenchmarkKernels times every loop of the kernel family once, through
// the door that runs it: 1 Mi uniform values, predicates of 10 % and
// 50 % selectivity, sequential (workers = 1) and fanned out over
// GOMAXPROCS (at least 2) workers. Dense cells report ns per value
// scanned; cells over a selection (filter-rows … mark-rows) select at
// the cell's selectivity on one column, probe a second one, and report
// ns per selected position. mark-rows sets the selection's bits from
// row ids in the scrambled order a cracker piece holds them — half off a
// row id array, half off the low halves of packed words — as a residual
// conjunct selected through its index does. Every seq cell is expected at
// 0 allocs/op (positions/seq runs the loop into a reused list; the
// door's one allocation is the list it returns).
func BenchmarkKernels(b *testing.B) {
	const n, domain = 1 << 20, 1 << 30
	drive, vals := randVals(n, domain, 1), randVals(n, domain, 2)
	par := max(runtime.GOMAXPROCS(0), 2)
	view := View{Base: vals}
	var (
		sink    int64
		posBuf  = make(PosList, 0, n)
		valBuf  = make([]int64, 0, n)
		bm, tmp = NewBitmap(n), NewBitmap(n)
	)
	for _, pct := range []int64{10, 50} {
		lo, hi := int64(0), domain/100*pct
		sel := ScanRange(drive, lo, hi)
		ScanRangeBitmap(drive, lo, hi, bm)
		marks := slices.Clone(sel)
		rand.New(rand.NewSource(pct)).Shuffle(len(marks), func(i, j int) { marks[i], marks[j] = marks[j], marks[i] })
		markRows, markWords := marks[:len(marks)/2], make([]int64, 0, len(marks))
		for _, p := range marks[len(marks)/2:] {
			markWords = append(markWords, drive[p]<<32|int64(p))
		}
		cells := []struct {
			name  string
			items int
			run   func(workers int)
		}{
			{"count", n, func(w int) { sink += int64(ParallelCountRange(vals, lo, hi, w)) }},
			{"sum", n, func(w int) { sink += ParallelSumRange(vals, lo, hi, w) }},
			{"minmax", n, func(w int) {
				mn, mx, _ := ParallelMinMaxRange(vals, lo, hi, w)
				sink += mn + mx
			}},
			{"positions", n, func(w int) {
				if w == 1 {
					posBuf = appendRange(posBuf[:0], vals, 0, lo, hi)
				} else {
					posBuf = ParallelScanRange(vals, lo, hi, w)
				}
			}},
			{"bits", n, func(w int) { ParallelScanRangeBitmap(vals, lo, hi, tmp, w) }},
			{"filter-rows", len(sel), func(w int) {
				s := Selection{Rows: append(posBuf[:0], sel...)}
				view.Filter(&s, lo, hi, w)
				posBuf = s.Rows
			}},
			{"filter-bitmap", len(sel), func(w int) {
				tmp.words = append(tmp.words[:0], bm.words...)
				view.Filter(&Selection{Bits: tmp, Dense: true}, lo, hi, w)
			}},
			{"gather", len(sel), func(w int) { valBuf = view.Fetch(&Selection{Rows: sel}, valBuf[:0], w) }},
			{"sum-bitmap", len(sel), func(int) { sink += view.Sum(&Selection{Bits: bm, Dense: true}, 1) }},
			{"mark-rows", len(sel), func(int) {
				tmp.SetRowsExtend(markRows)
				tmp.SetLowRowsExtend(markWords)
			}},
		}
		for _, c := range cells {
			for _, mode := range []struct {
				name    string
				workers int
			}{{"seq", 1}, {"par", par}} {
				if (c.name == "sum-bitmap" || c.name == "mark-rows") && mode.workers > 1 {
					continue // no fan-out exists for it
				}
				b.Run(fmt.Sprintf("%s/%s/%dpct", c.name, mode.name, pct), func(b *testing.B) {
					b.ReportAllocs()
					c.run(mode.workers) // warm the pools
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.run(mode.workers)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.items), "ns/value")
				})
			}
		}
	}
	_ = sink
}

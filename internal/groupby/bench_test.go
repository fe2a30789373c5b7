package groupby

import (
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/column"
)

// benchRows is the input size of BenchmarkGroup: large enough that the
// columns (8 MB each) do not fit the last-level cache, as on the
// benchmark's analytic-mix workload.
const benchRows = 1 << 20

// benchClusterRows is the cluster size the synthetic key-order walk
// aims for: about what a converged cracker piece holds.
const benchClusterRows = 8192

// BenchmarkGroup times the one grouped-aggregation core through each of
// its three feeders — bitmap and position-list selection vectors and the
// key-ordered cluster walk; bitmap-all is the bitmap of every row, folded
// in place — on a key domain the dense accumulator takes (64 groups) and
// one only the hash table can (2^19 groups), with the yardstick's fused
// count/sum/min/max plan. It reports ns per input row; with the result
// table reused, allocs/op is 0 for every feeder.
func BenchmarkGroup(b *testing.B) {
	for _, dom := range []struct {
		name   string
		groups int64
	}{{"dense-64groups", 64}, {"hash-2^19groups", 1 << 19}} {
		rng := rand.New(rand.NewSource(41))
		key := make([]int64, benchRows)
		val := make([]int64, benchRows)
		for i := range key {
			key[i] = rng.Int63n(dom.groups)
			val[i] = rng.Int63n(1 << 20)
		}
		// Seven rows in eight selected, as a grouped query's selection
		// typically is dense; and every row, as a grouped query without
		// predicates selects.
		bm, all := column.NewBitmap(benchRows), column.NewBitmap(benchRows)
		all.SetRange(0, benchRows)
		var sel column.PosList
		for i := 0; i < benchRows; i++ {
			if i&7 != 7 {
				bm.Set(column.Pos(i))
				sel = append(sel, column.Pos(i))
			}
		}
		aggs := []Agg{Count(), Sum("v"), Min("v"), Max("v")}
		spec := &Spec{
			Keys:     []Key{{View: column.View{Base: key}, Lo: 0, Hi: dom.groups - 1}},
			Aggs:     aggs,
			AggViews: []column.View{{}, {Base: val}, {Base: val}, {Base: val}},
			Threads:  1,
		}

		// The key-ordered stream of the cluster walk: (value, row) pairs
		// sorted by value, cut where the value changes about every
		// benchClusterRows entries, rows left unordered inside a cluster.
		order := make([]uint32, benchRows)
		for i := range order {
			order[i] = uint32(i)
		}
		slices.SortFunc(order, func(a, b uint32) int {
			if key[a] != key[b] {
				if key[a] < key[b] {
					return -1
				}
				return 1
			}
			return 0
		})
		walkVals := make([]int64, benchRows)
		for i, r := range order {
			walkVals[i] = key[r]
		}
		var cuts []int
		for i := 0; i < benchRows; {
			j := min(i+benchClusterRows, benchRows)
			for j < benchRows && walkVals[j] == walkVals[j-1] {
				j++
			}
			rng.Shuffle(j-i, func(x, y int) {
				order[i+x], order[i+y] = order[i+y], order[i+x]
				walkVals[i+x], walkVals[i+y] = walkVals[i+y], walkVals[i+x]
			})
			cuts = append(cuts, j)
			i = j
		}
		walk := func(fn func(vals []int64, rows []uint32)) {
			lo := 0
			for _, hi := range cuts {
				fn(walkVals[lo:hi], order[lo:hi])
				lo = hi
			}
		}

		var res Result
		run := func(name string, rows int, fn func() error) {
			b.Run(name+"/"+dom.name, func(b *testing.B) {
				if err := fn(); err != nil { // warm the pooled state and res
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
		run("bitmap", len(sel), func() error { return GroupBitmap(spec, bm, &res) })
		run("bitmap-all", benchRows, func() error { return GroupBitmap(spec, all, &res) })
		run("rows", len(sel), func() error { return GroupRows(spec, sel, &res) })
		run("clusters", len(sel), func() error { return GroupClusters(spec, bm, walk, &res) })
	}
}

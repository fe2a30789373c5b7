package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"holistic/internal/column"
	"holistic/internal/engine"
)

// benchInputs builds an M:N join: n build keys, 2n probe keys, keys
// over a quarter-sized pool so real fan-out occurs.
func benchInputs(n int) (Input, Input) {
	rng := rand.New(rand.NewSource(13))
	domain := int64(n / 4)
	if domain < 16 {
		domain = 16
	}
	return randInput(rng, n, domain), randInput(rng, 2*n, domain)
}

// oneToMany builds the analytic-mix join's shape over a key pool: 2^15
// unique build keys drawn from the pool, 2^17 probe keys drawn from it
// uniformly (about half match, each once).
func oneToMany(pool []int64) (Input, Input) {
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	build, probe := randInput(rng, 1<<15, 1), randInput(rng, 1<<17, 1)
	copy(build.Keys, pool)
	for i := range probe.Keys {
		probe.Keys[i] = pool[rng.Intn(len(pool))]
	}
	return build, probe
}

// BenchmarkJoinCountHash measures the hash-join count kernel in both
// slot-addressing modes: M:N over a quarter-sized pool and the
// yardstick's 1:N over a dense 2^16-key pool (direct-addressed), and
// the same 1:N over 2^16 keys scattered across 2^40 (radix-hashed).
// ReportAllocs shows the pooled steady state (0 B/op sequential — the
// bar TestHashCountAllocationFree enforces).
func BenchmarkJoinCountHash(b *testing.B) {
	dense, sparse := make([]int64, 1<<16), make([]int64, 1<<16)
	rng := rand.New(rand.NewSource(19))
	for i := range dense {
		dense[i], sparse[i] = int64(i), rng.Int63n(1<<40)
	}
	type inputs struct{ left, right Input }
	var cases [3]inputs
	cases[0].left, cases[0].right = benchInputs(1 << 16)
	cases[1].left, cases[1].right = oneToMany(dense)
	cases[2].left, cases[2].right = oneToMany(sparse)
	for i, name := range []string{"m:n", "dense-1:n", "sparse-1:n"} {
		left, right := cases[i].left, cases[i].right
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, threads), func(b *testing.B) {
				Hash(Op{Kind: OpCount}, left, right, threads, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Hash(Op{Kind: OpCount}, left, right, threads, nil)
				}
			})
		}
	}
}

// sortedStream streams in the way a fully refined index walks it: one
// cluster per key value, ascending, held in memory so the walk costs
// nothing.
func sortedStream(in Input) Stream {
	order := make([]int, len(in.Keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.Keys[order[a]] < in.Keys[order[b]] })
	vals := make([]int64, len(order))
	rows := make([]uint32, len(order))
	for i, o := range order {
		vals[i], rows[i] = in.Keys[o], in.Rows[o]
	}
	return Stream{
		Walk: func(fn func([]int64, []uint32)) bool {
			for i := 0; i < len(vals); {
				j := i + 1
				for j < len(vals) && vals[j] == vals[i] {
					j++
				}
				fn(vals[i:j], rows[i:j])
				i = j
			}
			return true
		},
		Count: len(vals),
	}
}

// BenchmarkJoinCountMerge measures the index-clustered merge-join
// count kernel over fully refined (span-1) cluster streams — the
// post-convergence shape the holistic daemon produces.
func BenchmarkJoinCountMerge(b *testing.B) {
	left, right := benchInputs(1 << 16)
	ls, rs := sortedStream(left), sortedStream(right)
	b.Run("spans=1", func(b *testing.B) {
		Merge(Op{Kind: OpCount}, ls, rs, 0, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Merge(Op{Kind: OpCount}, ls, rs, 0, nil)
		}
	})
}

// regimePool draws 2^16 distinct keys from [0, 2^bits): every key of the
// span at bits = 16, ever sparser above it.
func regimePool(bits uint) []int64 {
	rng := rand.New(rand.NewSource(int64(bits)))
	seen := make(map[int64]bool, 1<<16)
	pool := make([]int64, 0, 1<<16)
	for len(pool) < 1<<16 {
		if k := rng.Int63n(1 << bits); !seen[k] {
			seen[k] = true
			pool = append(pool, k)
		}
	}
	return pool
}

// offlineSide loads one join side into a table under offline indexing,
// whole relation selected: the input of the planner's choice between
// gathering for Hash and walking the sorted copy for Merge.
func offlineSide(b *testing.B, in Input) (exec *engine.Executor, keys column.View, sel *column.Bitmap) {
	t := engine.NewTable("side")
	t.MustAddColumn(column.New("k", append([]int64(nil), in.Keys...)))
	exec = engine.NewOfflineExecutor(t, 1)
	b.Cleanup(exec.Close)
	keys, err := exec.View("k")
	if err != nil {
		b.Fatal(err)
	}
	sel = column.NewBitmap(len(in.Keys))
	sel.SetRange(0, len(in.Keys))
	return exec, keys, sel
}

// BenchmarkJoinRegime is the join regime sweep: the yardstick's 1:N shape
// (2^15 unique build keys and 2^17 probe keys from one 2^16-key pool) at
// key spans 2^16, 2^24, 2^32 and 2^40, Hash paired with Merge on identical
// inputs.
//
//   - kernel cells: sequential Hash over gathered inputs against Merge
//     over pre-sorted in-memory streams. Merge's walk is free here, so
//     these are context only.
//   - decision cells: both sides are offline-indexed tables with the
//     whole relation selected, so every cluster spans one value. Hash
//     gathers the selected keys and rows first and runs on GOMAXPROCS
//     threads, as a runner or the benchmark rung calls it; Merge, which
//     has no parallel path, walks both sorted copies through
//     Executor.WalkKeyOrder. This is the choice a planner would face,
//     walk included.
func BenchmarkJoinRegime(b *testing.B) {
	op := Op{Kind: OpCount}
	threads := runtime.GOMAXPROCS(0)
	for _, bits := range []uint{16, 24, 32, 40} {
		build, probe := oneToMany(regimePool(bits))
		span := fmt.Sprintf("span=2^%d", bits)
		b.Run(span+"/kernel/hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Hash(op, build, probe, 1, nil)
			}
		})
		ls, rs := sortedStream(build), sortedStream(probe)
		b.Run(span+"/kernel/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Merge(op, ls, rs, 0, nil)
			}
		})

		lExec, lKeys, lSel := offlineSide(b, build)
		rExec, rKeys, rSel := offlineSide(b, probe)
		b.Run(span+"/decision/hash", func(b *testing.B) {
			var lIn, rIn Input
			for i := 0; i < b.N; i++ {
				lIn.Rows = lSel.AppendPositions(lIn.Rows[:0])
				lIn.Keys = lKeys.GatherRows(lIn.Keys[:0], lIn.Rows)
				rIn.Rows = rSel.AppendPositions(rIn.Rows[:0])
				rIn.Keys = rKeys.GatherRows(rIn.Keys[:0], rIn.Rows)
				Hash(op, lIn, rIn, threads, nil)
			}
		})
		walk := func(exec *engine.Executor, sel *column.Bitmap) Stream {
			return Stream{
				Walk: func(fn func(vals []int64, rows []uint32)) bool {
					ok, err := exec.WalkKeyOrder("k", fn)
					return ok && err == nil
				},
				Sel: sel, Count: sel.Count(),
			}
		}
		lw, rw := walk(lExec, lSel), walk(rExec, rSel)
		want, _ := Hash(op, build, probe, 1, nil)
		b.Run(span+"/decision/merge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got, _, ok := Merge(op, lw, rw, 0, nil); !ok || got != want {
					b.Fatalf("merge over the offline walks: %d (ok %v), hash %d", got, ok, want)
				}
			}
		})
	}
}

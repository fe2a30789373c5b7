package join

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
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

// BenchmarkJoinCountMerge measures the index-clustered merge-join
// count kernel over fully refined (span-1) cluster streams — the
// post-convergence shape the holistic daemon produces.
func BenchmarkJoinCountMerge(b *testing.B) {
	left, right := benchInputs(1 << 16)
	mkStream := func(in Input) Stream {
		type kv struct {
			k int64
			r uint32
		}
		s := make([]kv, len(in.Keys))
		for i := range in.Keys {
			s[i] = kv{in.Keys[i], in.Rows[i]}
		}
		sort.Slice(s, func(a, b int) bool { return s[a].k < s[b].k })
		vals := make([]int64, len(s))
		rows := make([]uint32, len(s))
		for i, e := range s {
			vals[i] = e.k
			rows[i] = e.r
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
	ls, rs := mkStream(left), mkStream(right)
	b.Run("spans=1", func(b *testing.B) {
		Merge(Op{Kind: OpCount}, ls, rs, 0, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Merge(Op{Kind: OpCount}, ls, rs, 0, nil)
		}
	})
}

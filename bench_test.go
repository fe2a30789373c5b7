// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5): BenchmarkExperiment/<name>, one sub-benchmark
// per experiment of internal/bench. Each iteration executes the full
// experiment at a reduced scale tuned so a single run takes well under a
// second; `go run ./cmd/holisticbench` executes the same experiments at
// the larger default scale and prints the tables.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Print a figure's rows while benchmarking:
//
//	go test -bench=BenchmarkExperiment/fig6a -v
package holistic_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic"
	"holistic/internal/bench"
)

// benchParams shrinks the evaluation scale so each experiment fits a
// benchmark iteration; holisticbench uses the full defaults.
func benchParams() bench.Params {
	p := bench.DefaultParams()
	p.ColumnSize = 1 << 17
	p.Queries = 200
	p.Attrs = 5
	p.Domain = 1 << 30
	p.Interval = time.Millisecond
	p.Refinements = 16
	p.L1Values = 2048
	p.TPCHOrders = 4000
	return p
}

var printOnce sync.Map

// runExperiment executes one registered experiment per iteration.
// ReportAllocs is on for every experiment so allocation regressions on
// the query paths show up in the -bench output without extra flags.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(name, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, printed := printOnce.LoadOrStore(name, true); !printed && testing.Verbose() {
			b.StopTimer()
			res.Fprint(os.Stdout)
			b.StartTimer()
		}
	}
}

// BenchmarkExperiment runs every registered experiment — the paper's
// Figures 6-17, the workloads beyond them (selvec, groupby, join,
// recover) and the ablations of DESIGN.md's called-out
// decisions — as BenchmarkExperiment/<name>; `holisticbench -list` gives
// each name's title.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.Name, func(b *testing.B) { runExperiment(b, e.Name) })
	}
}

// BenchmarkCountRangeExactHit times a range door on a converged column:
// the bounds are piece boundaries already, so the call is the door's own
// cost — latches and the observer's bracket.
func BenchmarkCountRangeExactHit(b *testing.B) {
	const n, domain = 1 << 16, 1 << 30
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	s := holistic.NewStore(holistic.Config{Mode: holistic.ModeAdaptive, Threads: 1, Seed: 1})
	defer s.Close()
	if err := s.AddIntColumn("a", vals); err != nil {
		b.Fatal(err)
	}
	ranges := make([][2]int64, 256)
	for i := range ranges {
		lo := rng.Int63n(domain)
		ranges[i] = [2]int64{lo, lo + rng.Int63n(domain-lo) + 1}
		if _, err := s.CountRange("a", ranges[i][0], ranges[i][1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ranges[i%len(ranges)]
		if _, err := s.CountRange("a", r[0], r[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteVictim times Delete and Update on a converged 2 Mi-row
// adaptive column: what it costs to turn "the row holding v" into a row
// id. head16Ki draws victims from the first 16 Ki rows — the prefix the
// frozen benchmark confines them to, because a front-to-back scan made
// anything else unaffordable — and uniform from all rows, where a scan
// pays ~13 ms a write and the index one piece. Run with -benchtime 20x in
// CI: a scan coming back shows as a timeout-sized number.
func BenchmarkWriteVictim(b *testing.B) {
	const n, domain, queries = 2 << 20, 1 << 30, 2000
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	converged := func(b *testing.B) *holistic.Store {
		s := holistic.NewStore(holistic.Config{Mode: holistic.ModeAdaptive, Threads: 1, Seed: 1})
		if err := s.AddIntColumn("a", vals); err != nil {
			b.Fatal(err)
		}
		qr := rand.New(rand.NewSource(2))
		for i := 0; i < queries; i++ {
			lo := qr.Int63n(domain)
			if _, err := s.CountRange("a", lo, lo+1+qr.Int63n(domain-lo)); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	for _, from := range []struct {
		name string
		rows int
	}{{"head16Ki", 16 << 10}, {"uniform", n}} {
		for _, op := range []string{"delete", "update"} {
			b.Run(from.name+"/"+op, func(b *testing.B) {
				s := converged(b)
				defer s.Close()
				// Distinct victim rows, so no write names a value an
				// earlier one consumed (random 30-bit values rarely repeat).
				vr := rand.New(rand.NewSource(3))
				victims := vr.Perm(from.rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := vals[victims[i%len(victims)]]
					var err error
					if op == "delete" {
						err = s.Delete("a", v)
					} else {
						err = s.Update("a", v, vr.Int63n(domain))
					}
					if err != nil && i < len(victims) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCheckpoint times one Checkpoint of a durable store holding
// four 2 Mi-row columns that 2500 range queries have converged: the
// snapshot of the data plus whatever index the mode built. adaptive-packed
// keeps one 8-byte word per tuple, adaptive-wide (a domain no 2^32 window
// holds) values beside rowids, offline a sorted run with rowids. Beside
// ns/op and the allocation columns it reports the size of the generation
// each checkpoint leaves on disk; B/op growing with the row count is a
// clone or a whole-file buffer coming back. Run with -benchtime 5x.
func BenchmarkCheckpoint(b *testing.B) {
	const n, attrs, queries = 2 << 20, 4, 2500
	names := []string{"a", "b", "c", "d"}
	for _, tc := range []struct {
		name   string
		mode   holistic.Mode
		domain int64
	}{
		{"adaptive-packed", holistic.ModeAdaptive, 1 << 30},
		{"adaptive-wide", holistic.ModeAdaptive, 1 << 40},
		{"offline", holistic.ModeOffline, 1 << 30},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := holistic.OpenStore(dir, holistic.Config{Mode: tc.mode, Threads: 1, Seed: 1, SnapshotInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(1))
			for _, name := range names[:attrs] {
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = rng.Int63n(tc.domain)
				}
				if err := s.AddIntColumn(name, vals); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < queries; i++ {
				lo := rng.Int63n(tc.domain)
				if _, err := s.CountRange(names[i%attrs], lo, lo+1+rng.Int63n(tc.domain-lo)); err != nil {
					b.Fatal(err)
				}
			}
			var written int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				written += generationBytes(b, dir, s.Metrics().Recovery.Generation)
				b.StartTimer()
			}
			b.ReportMetric(float64(written)/float64(b.N)/1e6, "MB-written/op")
		})
	}
}

// generationBytes sums the sizes of the files in dir that snapshot
// generation gen owns: its column segments, state file and manifest.
func generationBytes(b *testing.B, dir string, gen uint64) int64 {
	b.Helper()
	tag := fmt.Sprintf("-%012d", gen)
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		name := e.Name()
		owned := strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "state-") || strings.HasPrefix(name, "manifest-")
		if !owned || !strings.Contains(name, tag) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// Package ccgi implements mP-CCGI, the modified Parallel-Chunked
// Coarse-Granular Index the paper benchmarks against in Section 5.2: the
// multi-core adaptive indexing algorithm of Alvarez et al. (DaMoN 2014)
// extended — as the paper describes — with result consolidation so that
// selections feed bulk-processing operators from a single contiguous
// array (the technique of hybrid adaptive indexing, Idreos et al.,
// PVLDB 2011).
//
// Shape of the algorithm:
//
//   - The column is split by position into as many chunks as threads;
//     each chunk is an independent cracker column with its own cracker
//     index.
//   - The first query additionally pays a coarse-granular range
//     partitioning of every chunk (cracks at evenly spaced bucket
//     boundaries) — the pre-index step whose cost "penalizes the first
//     set of queries" (Section 5.2).
//   - Every query cracks all chunks in parallel on its own bounds.
//   - Each requested value range is consolidated once into a contiguous
//     array; re-requested ranges reuse the consolidation.
package ccgi

import (
	"sync"

	"holistic/internal/column"
	"holistic/internal/cracking"
)

// Index is one mP-CCGI adaptive index over a single attribute.
type Index struct {
	name    string
	chunks  []*cracking.Column
	offsets []int // offsets[i] is the base position of chunk i's first value
	buckets int

	domainLo, domainHi int64

	mu             sync.Mutex
	prePartitioned bool
	consolidated   map[[2]int64]struct{}
}

// New builds an mP-CCGI index over base using `threads` chunks and a
// coarse pre-partitioning into `buckets` value ranges (buckets <= 1
// disables the pre-index step). cfg configures each chunk's cracker.
func New(name string, base []int64, threads, buckets int, cfg cracking.Config) *Index {
	if threads < 1 {
		threads = 1
	}
	x := &Index{
		name:         name,
		buckets:      buckets,
		consolidated: make(map[[2]int64]struct{}),
	}
	n := len(base)
	chunkLen := (n + threads - 1) / threads
	for start := 0; start < n; start += chunkLen {
		end := start + chunkLen
		if end > n {
			end = n
		}
		x.chunks = append(x.chunks, cracking.New(name, base[start:end], cfg))
		x.offsets = append(x.offsets, start)
	}
	if len(x.chunks) == 0 {
		x.chunks = append(x.chunks, cracking.New(name, nil, cfg))
		x.offsets = append(x.offsets, 0)
	}
	x.domainLo, x.domainHi = x.chunks[0].Domain()
	for _, c := range x.chunks[1:] {
		lo, hi := c.Domain()
		if lo < x.domainLo {
			x.domainLo = lo
		}
		if hi > x.domainHi {
			x.domainHi = hi
		}
	}
	return x
}

// Name returns the indexed attribute's name.
func (x *Index) Name() string { return x.name }

// Pieces sums the cracker pieces across all chunks.
func (x *Index) Pieces() int {
	total := 0
	for _, c := range x.chunks {
		total += c.Pieces()
	}
	return total
}

// prePartition pays the coarse-granular pre-index step: every chunk is
// cracked, in parallel, at evenly spaced bucket boundaries over the
// domain. Called by the first query.
func (x *Index) prePartition() {
	if x.buckets <= 1 || x.domainHi <= x.domainLo {
		return
	}
	step := (x.domainHi - x.domainLo) / int64(x.buckets)
	if step == 0 {
		return
	}
	column.ForChunks(len(x.chunks), len(x.chunks), 1, func(i, _, _ int) {
		for b := int64(1); b < int64(x.buckets); b++ {
			x.chunks[i].CrackAt(x.domainLo + b*step)
		}
	})
}

// ensurePrePartitioned pays the coarse pre-index step exactly once, on
// whichever query arrives first.
func (x *Index) ensurePrePartitioned() {
	x.mu.Lock()
	if !x.prePartitioned {
		x.prePartitioned = true
		x.mu.Unlock()
		x.prePartition()
		return
	}
	x.mu.Unlock()
}

// selectChunks cracks every chunk on [lo, hi) in parallel and returns
// the per-chunk ranges.
func (x *Index) selectChunks(lo, hi int64) []cracking.Range {
	x.ensurePrePartitioned()
	ranges := make([]cracking.Range, len(x.chunks))
	column.ForChunks(len(x.chunks), len(x.chunks), 1, func(i, _, _ int) {
		ranges[i] = x.chunks[i].SelectRange(lo, hi)
	})
	return ranges
}

// SelectCount cracks every chunk in parallel on [lo, hi), consolidates
// the value range if it is new, and returns the number of qualifying
// tuples.
func (x *Index) SelectCount(lo, hi int64) int {
	ranges := x.selectChunks(lo, hi)
	total := 0
	for _, r := range ranges {
		total += r.Count()
	}
	x.consolidate(lo, hi, ranges, total)
	return total
}

// SelectSegments cracks every chunk in parallel on [lo, hi), then streams
// the qualifying tuples — values and chunk-local rowids — to fn on the
// calling goroutine, chunk by chunk, one stable segment at a time: a
// row's base position is off plus its rowid, and total is the number of
// qualifying values over all chunks. fn must not retain the segment.
// Unlike SelectCount it consolidates nothing — the consumer reads the
// chunks' own pieces.
func (x *Index) SelectSegments(lo, hi int64, fn func(total int, off uint32, s cracking.Segment)) {
	ranges := x.selectChunks(lo, hi)
	total := 0
	for _, r := range ranges {
		total += r.Count()
	}
	for i, c := range x.chunks {
		off := uint32(x.offsets[i])
		c.ForEachSegment(ranges[i].Start, ranges[i].End, func(s cracking.Segment) {
			fn(total, off, s)
		})
	}
}

// consolidate copies the qualifying values of a never-before-seen value
// range into one contiguous array, so downstream operators can run tight
// loops over it. Each value range is written by a single query only
// (Section 5.2); repeated ranges are free.
func (x *Index) consolidate(lo, hi int64, ranges []cracking.Range, total int) {
	key := [2]int64{lo, hi}
	x.mu.Lock()
	if _, done := x.consolidated[key]; done {
		x.mu.Unlock()
		return
	}
	x.consolidated[key] = struct{}{}
	x.mu.Unlock()
	// Each consolidation owns its buffer: concurrent queries consolidate
	// distinct value ranges simultaneously.
	buf := make([]int64, 0, total)
	for i, c := range x.chunks {
		r := ranges[i]
		if r.Count() == 0 {
			continue
		}
		c.ForEachSegment(r.Start, r.End, func(s cracking.Segment) {
			buf = s.AppendValues(buf)
		})
	}
}

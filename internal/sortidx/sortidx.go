// Package sortidx implements the full-indexing substrate used by the
// offline and online indexing baselines (Section 5.1 of the paper): a
// parallel multi-way merge sort that stands in for the NUMA-aware m-way
// sort of Balkesen et al. (PVLDB 2013), and binary-search range selects
// over the sorted result.
//
// Offline indexing pre-sorts every column before queries arrive; online
// indexing sorts the relevant columns after a monitoring epoch. In both
// cases the sort is the dominant upfront cost the paper charges to the
// first (respectively the epoch-ending) query, and all later queries are
// answered with O(log N) binary search.
package sortidx

import (
	"cmp"
	"slices"
	"sort"

	"holistic/internal/column"
)

// SortedColumn is a fully sorted copy of a base column carrying the base
// row id of each value for late tuple reconstruction.
type SortedColumn struct {
	name string
	vals []int64
	rows []uint32
}

// pair travels through the sort when the values span more than 2^32
// (see Build).
type pair struct {
	v int64
	r uint32
}

// Build sorts a copy of base with workers goroutines (workers <= 1 sorts
// sequentially), keeping base row ids aligned with the sorted values.
// When the values span less than 2^32 each travels through the sort as
// one word, (value - min - 2^31) << 32 | rowid, whose signed order is the
// order of (value, rowid) — the word a cracker column packs (Compressed
// Key Sort's key‖rowid): the sort then is a plain int64 sort, and the
// word comes apart again afterwards. Wider columns sort (value, rowid)
// pairs.
func Build(name string, base []int64, workers int) *SortedColumn {
	s := &SortedColumn{name: name, vals: make([]int64, len(base)), rows: make([]uint32, len(base))}
	if len(base) == 0 {
		return s
	}
	lo, hi := slices.Min(base), slices.Max(base)
	if uint64(hi)-uint64(lo) < 1<<32 {
		words, bias := s.vals, lo+1<<31
		for i, v := range base {
			words[i] = (v-bias)<<32 | int64(i)
		}
		parallelSort(words, workers, slices.Sort[[]int64], cmp.Compare[int64])
		for i, w := range words {
			s.vals[i], s.rows[i] = w>>32+bias, uint32(w)
		}
		return s
	}
	pairs := make([]pair, len(base))
	for i, v := range base {
		pairs[i] = pair{v, uint32(i)}
	}
	byValue := func(a, b pair) int { return cmp.Compare(a.v, b.v) }
	parallelSort(pairs, workers, func(run []pair) { slices.SortFunc(run, byValue) }, byValue)
	for i, p := range pairs {
		s.vals[i], s.rows[i] = p.v, p.r
	}
	return s
}

// Name returns the attribute name.
func (s *SortedColumn) Name() string { return s.name }

// Len returns the number of values.
func (s *SortedColumn) Len() int { return len(s.vals) }

// Values exposes the sorted array (read-only for callers).
func (s *SortedColumn) Values() []int64 { return s.vals }

// SizeBytes reports the materialized size for storage accounting.
func (s *SortedColumn) SizeBytes() int64 {
	return int64(len(s.vals))*8 + int64(len(s.rows))*4
}

// SelectRange returns the position range [start, end) of values in
// [lo, hi) via two binary searches: the O(log N) select of a full index.
// An inverted range (hi < lo) is empty: end is never below start.
func (s *SortedColumn) SelectRange(lo, hi int64) (start, end int) {
	start = sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= lo })
	end = sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= hi })
	if end < start {
		end = start
	}
	return start, end
}

// CountRange returns the number of values in [lo, hi).
func (s *SortedColumn) CountRange(lo, hi int64) int {
	start, end := s.SelectRange(lo, hi)
	return end - start
}

// SumRange sums the values in [lo, hi).
func (s *SortedColumn) SumRange(lo, hi int64) int64 {
	start, end := s.SelectRange(lo, hi)
	var sum int64
	for _, v := range s.vals[start:end] {
		sum += v
	}
	return sum
}

// Rows returns the base row ids of positions [start, end).
func (s *SortedColumn) Rows(start, end int) []uint32 { return s.rows[start:end] }

// parallelSort sorts s in place using a multi-way parallel merge sort:
// the array is cut into up to `workers` runs, each sorted concurrently by
// sortRun — the standard library's pdqsort, specialised for int64 where
// the elements are — then merged pairwise, by compare, in parallel rounds.
func parallelSort[T any](s []T, workers int, sortRun func([]T), compare func(a, b T) int) {
	n := len(s)
	if workers < 2 || n < 4096 {
		sortRun(s)
		return
	}
	// Run r is [runs[r], runs[r+1]).
	runs := make([]int, workers+1)
	workers = column.ForChunks(n, workers, 1, func(w, start, end int) {
		runs[w] = start
		sortRun(s[start:end])
	})
	runs[workers] = n
	runs = runs[:workers+1]

	// Merge rounds: runs double in width each round.
	buf := make([]T, n)
	src, dst := s, buf
	for len(runs) > 2 {
		pairs := (len(runs) - 1) / 2
		column.ForChunks(pairs, pairs, 1, func(p, _, _ int) {
			lo, mid, hi := runs[2*p], runs[2*p+1], runs[2*p+2]
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], compare)
		})
		// An odd trailing run copies through unchanged.
		if (len(runs)-1)%2 == 1 {
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			copy(dst[lo:hi], src[lo:hi])
		}
		// Every merged pair, and the odd run, starts where its first run did.
		m := 0
		for i := 0; i < len(runs)-1; i += 2 {
			runs[m] = runs[i]
			m++
		}
		runs[m] = n
		runs = runs[:m+1]
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func mergeInto[T any](dst, a, b []T, compare func(a, b T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if compare(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

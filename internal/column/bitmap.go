package column

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Bitmap is the word-packed selection-vector form: bit p of the word
// array is set iff base position p qualifies. It is the dense
// counterpart of PosList — one bit per base position instead of 32 bits
// per qualifying position — so above ~3% selectivity it is smaller, and
// its intersection (the residual-conjunct filter of a conjunctive
// query) runs word at a time with zero-word skipping instead of probe
// by probe. Positions iterate in ascending order, which the
// materializing query forms exploit to skip their sort.
//
// A Bitmap is not safe for concurrent mutation except through
// OrRowsAtomic, the path the chunk-parallel CCGI select uses.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a zeroed bitmap covering positions [0, n).
func NewBitmap(n int) *Bitmap {
	b := &Bitmap{}
	b.Reset(n)
	return b
}

// Reset resizes the bitmap to cover positions [0, n) and clears every
// bit, reusing the backing array when it is large enough.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (b *Bitmap) Reset(n int) {
	nw := (n + 63) >> 6
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
}

// Len returns the number of positions the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks position p as qualifying. p must be < Len().
//
//holistic:noalloc
func (b *Bitmap) Set(p Pos) { b.words[p>>6] |= 1 << (p & 63) }

// unset clears position p, which must be < Len().
//
//holistic:noalloc
func (b *Bitmap) unset(p Pos) { b.words[p>>6] &^= 1 << (p & 63) }

// Test reports whether position p qualifies.
//
//holistic:noalloc
func (b *Bitmap) Test(p Pos) bool {
	if int(p) >= b.n {
		return false
	}
	return b.words[p>>6]&(1<<(p&63)) != 0
}

// Count returns the number of qualifying positions: a popcount fold,
// the bitmap's count(*) with no materialization.
//
//holistic:noalloc
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any position qualifies, short-circuiting on the
// first non-zero word — the cheap emptiness probe the refine loop uses
// to stop touching data once a conjunction has gone dry.
//
//holistic:noalloc
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// SetRange marks every position in [start, end): the selection vector of
// a contiguous qualifying window (a pre-sorted projection slice, or the
// all-rows universe of a grouped query without predicates), built word
// at a time.
//
//holistic:noalloc
func (b *Bitmap) SetRange(start, end int) {
	if start < 0 {
		start = 0
	}
	if end > b.n {
		end = b.n
	}
	if start >= end {
		return
	}
	first, last := start>>6, (end-1)>>6
	loMask := ^uint64(0) << uint(start&63)
	hiMask := ^uint64(0) >> uint(63-(end-1)&63)
	if first == last {
		b.words[first] |= loMask & hiMask
		return
	}
	b.words[first] |= loMask
	for wi := first + 1; wi < last; wi++ {
		b.words[wi] = ^uint64(0)
	}
	b.words[last] |= hiMask
}

// SetRowsExtend marks every row id in rows, growing the bitmap to cover
// ids at or beyond Len(). The adaptive select path streams rowids whose universe
// was sized before the select: a pending insert merged by a concurrent
// query can legitimately surface a row id assigned after the sizing,
// and must extend the bitmap instead of corrupting memory.
//
//holistic:noalloc
func (b *Bitmap) SetRowsExtend(rows []uint32) { setRowsExtend(b, rows) }

// SetLowRowsExtend is SetRowsExtend over row ids that travel as the low
// 32 bits of 64-bit words (a cracker column's packed tuples): the bits
// are set straight off the words, with no row id array in between.
//
//holistic:noalloc
func (b *Bitmap) SetLowRowsExtend(words []int64) { setRowsExtend(b, words) }

//holistic:noalloc
func setRowsExtend[T uint32 | int64](b *Bitmap, rows []T) {
	words, n := b.words, b.n // held in registers: the stores below cannot change them
	for _, x := range rows {
		r := uint32(x)
		if int(r) >= n {
			b.extend(int(r) + 1)
			words, n = b.words, b.n
		}
		words[r>>6] |= 1 << (r & 63)
	}
}

// extend grows the bitmap to cover [0, n) keeping existing bits.
//
//holistic:alloc-ok grows the retained buffer on first use or resize
func (b *Bitmap) extend(n int) {
	nw := (n + 63) >> 6
	for len(b.words) < nw {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// OrRowsAtomic marks every row id in rows shifted by off, with atomic
// word ORs so concurrent writers producing disjoint row ids (the CCGI
// chunks, whose position spans may share a boundary word) need no
// further synchronization.
//
//holistic:noalloc
func (b *Bitmap) OrRowsAtomic(rows []uint32, off uint32) { orRowsAtomic(b, rows, off) }

// OrLowRowsAtomic is OrRowsAtomic over row ids in the low 32 bits of
// 64-bit words (see SetLowRowsExtend).
//
//holistic:noalloc
func (b *Bitmap) OrLowRowsAtomic(words []int64, off uint32) { orRowsAtomic(b, words, off) }

//holistic:noalloc
func orRowsAtomic[T uint32 | int64](b *Bitmap, rows []T, off uint32) {
	for _, x := range rows {
		p := uint32(x) + off
		atomic.OrUint64(&b.words[p>>6], 1<<(p&63))
	}
}

// clearFrom clears every position >= n without shrinking the bitmap:
// the presence filter against an attribute whose base array is shorter
// than the position universe (rows appended to other attributes only).
//
//holistic:noalloc
func (b *Bitmap) clearFrom(n int) {
	if n >= b.n {
		return
	}
	wi := n >> 6
	if r := uint(n & 63); r != 0 {
		b.words[wi] &= (1 << r) - 1
		wi++
	}
	clear(b.words[wi:])
}

// AppendPositions appends the qualifying positions to dst in ascending
// order — the bitmap → position-list conversion performed once at the
// project/aggregate boundary.
//
//holistic:noalloc
func (b *Bitmap) AppendPositions(dst PosList) PosList {
	return b.AppendPositionsWords(dst, 0, len(b.words))
}

// AppendPositionsWords is AppendPositions restricted to the words
// [fromWord, toWord): the chunked bitmap → position-list decode the
// grouped-aggregation kernels use to process a selection vector through
// a small pooled buffer (and parallel consumers use to split a bitmap
// into word-disjoint spans) without materializing the full list.
//
//holistic:noalloc
func (b *Bitmap) AppendPositionsWords(dst PosList, fromWord, toWord int) PosList {
	fromWord, toWord = max(fromWord, 0), min(toWord, len(b.words))
	for wi := fromWord; wi < toWord; wi++ {
		base := Pos(wi << 6)
		for w := b.words[wi]; w != 0; w &= w - 1 {
			dst = append(dst, base+Pos(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Words returns the number of 64-position words backing the bitmap —
// the unit chunked consumers split on.
func (b *Bitmap) Words() int { return len(b.words) }

// Word returns word i of the bitmap, positions [64i, 64i+64) one bit
// each: a consumer that finds it all ones can read those positions
// straight off a base array instead of decoding them.
//
//holistic:noalloc
func (b *Bitmap) Word(i int) uint64 { return b.words[i] }

// --- dense range of vals → bits ---

// scanWords fills the words covering positions [start, end) with the
// range test of vals, branch-free lane by lane; start must be 64-aligned
// so writers of adjacent spans touch disjoint words.
//
//holistic:noalloc
func scanWords(vals []int64, lo, hi int64, words []uint64, start, end int) {
	ulo, span := rangeBits(lo, hi)
	for p := start; p < end; {
		stop := min((p|63)+1, end)
		var w uint64
		for j, v := range vals[p:stop] {
			w |= laneBit(v, ulo, span) << uint(j)
		}
		words[p>>6] = w
		p = stop
	}
}

// ScanRangeBitmap is the bitmap-producing select operator: it resets b
// to cover vals and sets bit p iff lo <= vals[p] < hi.
//
//holistic:noalloc
func ScanRangeBitmap(vals []int64, lo, hi int64, b *Bitmap) {
	ParallelScanRangeBitmap(vals, lo, hi, b, 1)
}

// ParallelScanRangeBitmap is ScanRangeBitmap split across workers
// 64-aligned chunks, so every worker owns whole words and no write is
// shared.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func ParallelScanRangeBitmap(vals []int64, lo, hi int64, b *Bitmap, workers int) {
	b.Reset(len(vals))
	if workers < 2 || len(vals) < minParallelScan {
		scanWords(vals, lo, hi, b.words, 0, len(vals))
		return
	}
	ForChunks(len(vals), workers, 64, func(_, start, end int) {
		scanWords(vals, lo, hi, b.words, start, end)
	})
}

// --- set bits → fold ---

// denseLanes is the per-word popcount at and above which filterWords
// evaluates all 64 lanes branch-free and masks, rather than probing set
// bit by set bit: on dense words the straight-line loop beats the
// dependent find-first-set chain.
const denseLanes = 32

// filterWords intersects words, the first of which covers positions
// from (from<<6), with the range test of vals, in place. Zero words —
// regions already disqualified — are skipped without touching vals, and
// lanes at or beyond len(vals) have no value and never qualify.
//
//holistic:noalloc
func filterWords(vals []int64, words []uint64, from int, lo, hi int64) {
	ulo, span := rangeBits(lo, hi)
	for wi, w := range words {
		if w == 0 {
			continue
		}
		base := (from + wi) << 6
		end := len(vals) - base
		var m uint64
		if end >= 64 && bits.OnesCount64(w) >= denseLanes {
			for j, v := range vals[base : base+64] {
				m |= laneBit(v, ulo, span) << uint(j)
			}
			m &= w
		} else {
			for t := w; t != 0; t &= t - 1 {
				j := bits.TrailingZeros64(t)
				if j < end && inRange(vals[base+j], ulo, span) {
					m |= 1 << uint(j)
				}
			}
		}
		words[wi] = m
	}
}

// gatherBits appends vals at the set positions to dst in ascending
// order; every set position must be < len(vals).
//
//holistic:noalloc
func gatherBits(dst, vals []int64, words []uint64) []int64 {
	for wi, w := range words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			dst = append(dst, vals[base+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// foldBatch is how many set positions the bitmap folds collect before
// reading their values. The bit walk mispredicts a branch every few bits
// of a sparse bitmap, and a load issued behind a misprediction waits for
// it: read in the walk, a cold column costs a full memory latency per
// position. Read afterwards, in a loop with no data-dependent branch, the
// loads overlap.
const foldBatch = 256

// SumBitmap folds sum(vals[p]) over the qualifying positions without
// materializing anything. Every set position must be < len(vals).
//
//holistic:noalloc
func SumBitmap(vals []int64, b *Bitmap) int64 {
	var s int64
	var buf [foldBatch]int
	k, last := 0, len(b.words)-1
	for wi, w := range b.words {
		for base := wi << 6; w != 0; w &= w - 1 {
			buf[k] = base + bits.TrailingZeros64(w)
			k++
		}
		if k > foldBatch-64 || wi == last {
			for _, p := range buf[:k] {
				s += vals[p]
			}
			k = 0
		}
	}
	return s
}

// minMaxBits folds the extrema of vals over the set positions, in
// batches like SumBitmap; every set position must be < len(vals).
//
//holistic:noalloc
func minMaxBits(vals []int64, words []uint64) (mn, mx int64, n int) {
	mn, mx = noMin, noMax
	var buf [foldBatch]int
	k, last := 0, len(words)-1
	for wi, w := range words {
		for base := wi << 6; w != 0; w &= w - 1 {
			buf[k] = base + bits.TrailingZeros64(w)
			k++
		}
		if k > foldBatch-64 || wi == last {
			for _, p := range buf[:k] {
				mn, mx = widen(mn, mx, vals[p])
			}
			n += k
			k = 0
		}
	}
	return mn, mx, n
}

// FilterBitmap intersects b in place with the predicate lo <= vals[p] <
// hi: the residual-conjunct kernel on the bitmap representation.
//
//holistic:noalloc
func FilterBitmap(vals []int64, b *Bitmap, lo, hi int64) {
	filterWords(vals, b.words, 0, lo, hi)
}

// parallelFilterBitmap is FilterBitmap with the word array split across
// workers; writes are word-disjoint by construction.
//
//holistic:alloc-ok goroutine fan-out for the parallel path
func parallelFilterBitmap(vals []int64, b *Bitmap, lo, hi int64, workers int) {
	if workers < 2 || b.n < minParallelSel {
		filterWords(vals, b.words, 0, lo, hi)
		return
	}
	ForChunks(len(b.words), workers, 1, func(_, start, end int) {
		filterWords(vals, b.words[start:end], start, lo, hi)
	})
}

// --- pooled bitmaps ---
//
// The steady-state query path recycles its intermediates so a query
// allocates nothing once the pools are warm: internal/query's runner
// pools whole per-query scratch structs (bitmap included), the doors
// that materialize positions pool their per-worker lists (workerLists),
// and callers driving Executor.SelectBitmap directly borrow bitmaps here.

var bitmapPool = sync.Pool{New: func() any { return new(Bitmap) }}

// GetBitmap returns a pooled bitmap reset to cover [0, n).
//
//holistic:alloc-ok pool warm-up allocates the recycled object
func GetBitmap(n int) *Bitmap {
	b := bitmapPool.Get().(*Bitmap)
	b.Reset(n)
	return b
}

// PutBitmap recycles a bitmap obtained from GetBitmap. The caller must
// not retain it.
//
//holistic:noalloc
func PutBitmap(b *Bitmap) {
	if b != nil {
		bitmapPool.Put(b)
	}
}

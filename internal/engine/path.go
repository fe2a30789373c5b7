package engine

import (
	"slices"

	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/sortidx"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

// accessPath is whatever order one attribute has right now: none (the
// base column), a sorted copy, a cracker column, or mP-CCGI chunks. It
// hides the index algorithm behind one question — which tuples fall in a
// key range — so every Executor terminal is written once, over segments.
type accessPath interface {
	// walk hands the tuples with f.lo <= value < f.hi to f as segments,
	// under whatever latches the index needs, and returns f. For opCount
	// it reads no data and sets f.n; for opClusters it ignores the bounds
	// and streams the whole attribute in ascending key-cluster order.
	// Building or refining the index is a side effect.
	walk(f fold) fold
	// span estimates the value span one key-ordered cluster covers right
	// now; ok is false when the path cannot stream clusters with rowids.
	span() (span float64, ok bool)
	// estimate answers "how many tuples in [lo, hi)" from the index alone,
	// touching no data; ok is false when the path has no basis for one.
	estimate(lo, hi int64) (est float64, exact, ok bool)
}

// foldOp is what a terminal wants from the qualifying tuples.
type foldOp uint8

const (
	opCount    foldOp = iota // how many there are: no consumer, no data read
	opSum                    // their sum
	opMinMax                 // their extrema
	opRows                   // their row ids, materialized
	opBitmap                 // their row ids, as bits of bm
	opClusters               // (values, row ids) per key cluster, handed to fn
)

// fold is the consumer a terminal passes down an access path and gets
// back filled. It travels by value: a pointer or closure handed through
// the accessPath interface would escape to the heap on every query.
type fold struct {
	op      foldOp
	lo, hi  int64
	threads int // parallelism of the kernels that filter the base column

	n        int // qualifying tuples (opCount: set by the path; opMinMax: folded)
	sum      int64
	mn, mx   int64
	rows     []uint32
	bm       *column.Bitmap
	clusters func(vals []int64, rows []uint32)
	walked   bool // opClusters: the attribute had a key-ordered path to stream
	// opClusters over cracker pieces: where a piece's tuples are decoded
	// for clusters, reused from piece to piece.
	pieceVals []int64
	pieceRows []uint32

	// What a cracking path reports back for the shared epilogue: the
	// pending updates it merged first.
	merged int
}

// wantsRows reports whether the fold consumes row ids.
func (f *fold) wantsRows() bool { return f.op >= opRows }

// addBounds folds the extrema of n more qualifying values.
func (f *fold) addBounds(mn, mx int64, n int) {
	if n > 0 && (f.n == 0 || mn < f.mn) {
		f.mn = mn
	}
	if n > 0 && (f.n == 0 || mx > f.mx) {
		f.mx = mx
	}
	f.n += n
}

// addCracked folds one segment of a cracker column, every tuple of which
// qualifies: total is the tuple count of the whole walk and rowBase what
// to add to a row id to get the base row id. How the column stores its
// tuples stays behind cracking.Segment.
func (f *fold) addCracked(s cracking.Segment, rowBase uint32, total int) {
	switch f.op {
	case opSum:
		f.sum += s.Sum()
	case opMinMax:
		mn, mx := s.Bounds()
		f.addBounds(mn, mx, s.Len())
	case opRows:
		if f.rows == nil {
			f.rows = make([]uint32, 0, total)
		}
		n := len(f.rows)
		f.rows = s.AppendRows(f.rows)
		if rowBase != 0 {
			for i := range f.rows[n:] {
				f.rows[n+i] += rowBase
			}
		}
	case opBitmap:
		s.MarkRows(f.bm, rowBase)
	case opClusters:
		f.pieceVals = s.AppendValues(f.pieceVals[:0])
		f.pieceRows = s.AppendRows(f.pieceRows[:0])
		f.clusters(f.pieceVals, f.pieceRows)
	}
}

// scanPath is no order at all: every walk filters the base column, of
// which vals[i] is row i.
type scanPath struct{ vals []int64 }

func (p *scanPath) walk(f fold) fold {
	switch f.op {
	case opCount:
		f.n = column.ParallelCountRange(p.vals, f.lo, f.hi, f.threads)
	case opSum:
		f.sum = column.ParallelSumRange(p.vals, f.lo, f.hi, f.threads)
	case opMinMax:
		f.addBounds(column.ParallelMinMaxRange(p.vals, f.lo, f.hi, f.threads))
	case opRows:
		f.rows = column.ParallelScanRange(p.vals, f.lo, f.hi, f.threads)
	case opBitmap:
		column.ParallelScanRangeBitmap(p.vals, f.lo, f.hi, f.bm, f.threads)
	}
	return f
}

func (p *scanPath) span() (float64, bool)                       { return 0, false }
func (p *scanPath) estimate(lo, hi int64) (float64, bool, bool) { return 0, false, false }

// sortedPath is a fully sorted copy: binary search brackets the run, its
// extrema are edge reads and its runs of equal values the key clusters.
type sortedPath struct{ col *sortidx.SortedColumn }

func (p *sortedPath) walk(f fold) fold {
	start, end := 0, p.col.Len()
	if f.op != opClusters {
		start, end = p.col.SelectRange(f.lo, f.hi)
	}
	if f.op == opCount || start == end {
		f.n = end - start
		return f
	}
	vals, rows := p.col.Values()[start:end], p.col.Rows(start, end)
	switch f.op {
	case opSum:
		for _, v := range vals {
			f.sum += v
		}
	case opMinMax:
		f.addBounds(vals[0], vals[len(vals)-1], len(vals))
	case opRows:
		f.rows = slices.Clone(rows)
	case opBitmap:
		f.bm.SetRowsExtend(rows)
	case opClusters:
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			f.clusters(vals[i:j], rows[i:j])
			i = j
		}
	}
	return f
}

func (p *sortedPath) span() (float64, bool) { return 1, true }

func (p *sortedPath) estimate(lo, hi int64) (float64, bool, bool) {
	return float64(p.col.CountRange(lo, hi)), true, true
}

// crackerPath is a cracker column, the pending queue it was built with —
// merged into it by the walks whose range the updates fall in — and,
// under holistic indexing, its node in the daemon's index space. The
// three are published together and never change: a walk that loaded the
// path before an eviction keeps merging into the queue its column was
// built with.
type crackerPath struct {
	col   *cracking.Column
	pend  *updates.Pending
	entry *stats.Entry
}

func (p *crackerPath) walk(f fold) fold {
	if f.op == opClusters {
		// A whole-column walk is a select over the whole value range and
		// pays for every pending merge like one.
		f.merged = p.pend.MergeAll(p.col)
		p.col.ForEachPiece(func(s cracking.Segment) {
			f.addCracked(s, 0, 0)
		})
		return f
	}
	f.merged = p.pend.MergeRange(p.col, f.lo, f.hi)
	var r cracking.Range
	if f.op == opCount {
		// Crack, subtract positions: no piece is latched or read.
		r = p.col.SelectRange(f.lo, f.hi)
		f.n = r.Count()
	} else {
		// One column pin around crack and fold, so an update merge
		// cannot shift positions between the two.
		r = p.col.SelectSegments(f.lo, f.hi, func(r cracking.Range, s cracking.Segment) {
			f.addCracked(s, 0, r.Count())
		})
	}
	if p.entry != nil {
		// The select operator's access record: an exact hit needed no
		// reorganization.
		p.entry.RecordAccess(r.ExactHit())
	}
	return f
}

// span: the pieces are the clusters, so the expected cluster span is the
// domain span over the piece count — the number refinement keeps shrinking.
func (p *crackerPath) span() (float64, bool) {
	dLo, dHi := p.col.Domain()
	return (float64(dHi) - float64(dLo) + 1) / float64(max(p.col.Pieces(), 1)), true
}

// estimate is exact when both bounds already are piece boundaries
// (pending updates excluded — planning only needs relative order) and a
// uniform guess over the cached domain otherwise.
func (p *crackerPath) estimate(lo, hi int64) (float64, bool, bool) {
	if r, ok := p.col.LookupRange(lo, hi); ok {
		return float64(r.Count()), true, true
	}
	dLo, dHi := p.col.Domain()
	return column.UniformEstimate(float64(p.col.Len()), dLo, dHi, lo, hi), false, true
}

// ccgiPath is the mP-CCGI baseline: every chunk cracks in parallel, the
// qualifying pieces then stream chunk by chunk.
type ccgiPath struct{ idx *ccgi.Index }

func (p *ccgiPath) walk(f fold) fold {
	if f.op == opCount {
		f.n = p.idx.SelectCount(f.lo, f.hi)
		return f
	}
	p.idx.SelectSegments(f.lo, f.hi, func(total int, off uint32, s cracking.Segment) {
		f.addCracked(s, off, total)
	})
	return f
}

func (p *ccgiPath) span() (float64, bool)                       { return 0, false }
func (p *ccgiPath) estimate(lo, hi int64) (float64, bool, bool) { return 0, false, false }

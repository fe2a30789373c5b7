package engine

import (
	"holistic/internal/ccgi"
	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/sortidx"
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

// segment is one contiguous run of tuples.
type segment struct {
	vals []int64
	// rows[i]+rowBase is the base row id of vals[i]. On a needsFilter
	// segment rows is nil: vals is the base column and vals[i] is row i.
	rows    []uint32
	rowBase uint32
	// needsFilter: only the values inside the fold's bounds qualify;
	// every value of any other segment does.
	needsFilter bool
	// sorted: vals ascend, so extrema are edge reads and runs of equal
	// values are the key clusters.
	sorted bool
	// total is the number of tuples of the whole walk this segment
	// belongs to, for consumers that size their output up front.
	total int
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
	threads int // parallelism of the kernels over needsFilter segments

	n        int // qualifying tuples (opCount: set by the path; opMinMax: folded)
	sum      int64
	mn, mx   int64
	rows     []uint32
	bm       *column.Bitmap
	clusters func(vals []int64, rows []uint32)
	walked   bool // opClusters: the attribute had a key-ordered path to stream

	// What a cracking path reports back for the shared epilogue: the
	// select needed no reorganization, pending updates it merged first,
	// and that it carries no row ids although the fold needs them.
	exact  bool
	merged int
	noRows bool
}

// wantsRows reports whether the fold consumes row ids.
func (f *fold) wantsRows() bool { return f.op >= opRows }

// add folds one segment.
func (f *fold) add(s segment) {
	switch f.op {
	case opSum:
		if s.needsFilter {
			f.sum += column.ParallelSumRange(s.vals, f.lo, f.hi, f.threads)
			return
		}
		for _, v := range s.vals {
			f.sum += v
		}
	case opMinMax:
		// Segments are never empty; only the filter can qualify nothing.
		mn, mx, n := int64(0), int64(0), len(s.vals)
		switch {
		case s.needsFilter:
			mn, mx, n = column.ParallelMinMaxRange(s.vals, f.lo, f.hi, f.threads)
		case s.sorted:
			mn, mx = s.vals[0], s.vals[n-1]
		default:
			mn, mx = column.Bounds(s.vals)
		}
		if n > 0 && (f.n == 0 || mn < f.mn) {
			f.mn = mn
		}
		if n > 0 && (f.n == 0 || mx > f.mx) {
			f.mx = mx
		}
		f.n += n
	case opRows:
		if s.needsFilter {
			f.rows = column.ParallelScanRange(s.vals, f.lo, f.hi, f.threads)
			return
		}
		if f.rows == nil {
			f.rows = make([]uint32, 0, s.total)
		}
		if s.rowBase == 0 {
			f.rows = append(f.rows, s.rows...)
			return
		}
		for _, r := range s.rows {
			f.rows = append(f.rows, r+s.rowBase)
		}
	case opBitmap:
		switch {
		case s.needsFilter:
			column.ParallelScanRangeBitmap(s.vals, f.lo, f.hi, f.bm, f.threads)
		case s.rowBase != 0:
			f.bm.OrRowsAtomic(s.rows, s.rowBase)
		default:
			// Extend, not plain set: between the terminal sizing the
			// bitmap and this segment, a concurrent query can merge a
			// pending insert whose row id lies beyond the universe.
			f.bm.SetRowsExtend(s.rows)
		}
	case opClusters:
		if !s.sorted {
			f.clusters(s.vals, s.rows)
			return
		}
		for i := 0; i < len(s.vals); {
			j := i + 1
			for j < len(s.vals) && s.vals[j] == s.vals[i] {
				j++
			}
			f.clusters(s.vals[i:j], s.rows[i:j])
			i = j
		}
	}
}

// scanPath is no order at all: every walk filters the base column.
type scanPath struct{ vals []int64 }

func (p *scanPath) walk(f fold) fold {
	if f.op == opCount {
		f.n = column.ParallelCountRange(p.vals, f.lo, f.hi, f.threads)
		return f
	}
	f.add(segment{vals: p.vals, needsFilter: true})
	return f
}

func (p *scanPath) span() (float64, bool)                       { return 0, false }
func (p *scanPath) estimate(lo, hi int64) (float64, bool, bool) { return 0, false, false }

// sortedPath is a fully sorted copy: binary search brackets the run.
type sortedPath struct{ col *sortidx.SortedColumn }

func (p *sortedPath) walk(f fold) fold {
	start, end := 0, p.col.Len()
	if f.op != opClusters {
		start, end = p.col.SelectRange(f.lo, f.hi)
	}
	if f.op == opCount {
		f.n = end - start
	} else if end > start {
		f.add(segment{vals: p.col.Values()[start:end], rows: p.col.Rows(start, end), sorted: true, total: end - start})
	}
	return f
}

func (p *sortedPath) span() (float64, bool) { return 1, true }

func (p *sortedPath) estimate(lo, hi int64) (float64, bool, bool) {
	return float64(p.col.CountRange(lo, hi)), true, true
}

// crackerPath is a cracker column plus the pending updates of its
// attribute, merged into it by the walks whose range they fall in.
type crackerPath struct {
	col  *cracking.Column
	pend *updates.Pending
}

func (p *crackerPath) walk(f fold) fold {
	if f.wantsRows() && !p.col.HasRows() {
		f.noRows = true
		return f
	}
	if f.op == opClusters {
		// A whole-column walk is a select over the whole value range and
		// pays for every pending merge like one.
		if p.pend.Len() > 0 {
			f.merged = p.pend.MergeAll(p.col)
		}
		p.col.ForEachPiece(func(vals []int64, rows []uint32) {
			f.add(segment{vals: vals, rows: rows})
		})
		return f
	}
	if p.pend.Len() > 0 && p.pend.HasInRange(f.lo, f.hi) {
		f.merged = p.pend.MergeRange(p.col, f.lo, f.hi)
	}
	if f.op == opCount {
		// Crack, subtract positions: no piece is latched or read.
		r := p.col.SelectRange(f.lo, f.hi)
		f.n, f.exact = r.Count(), r.ExactHit()
		return f
	}
	// One column pin around crack and fold, so an update merge cannot
	// shift positions between the two.
	r := p.col.SelectSegments(f.lo, f.hi, func(r cracking.Range, vals []int64, rows []uint32) {
		f.add(segment{vals: vals, rows: rows, total: r.Count()})
	})
	f.exact = r.ExactHit()
	return f
}

// span: the pieces are the clusters, so the expected cluster span is the
// domain span over the piece count — the number refinement keeps shrinking.
func (p *crackerPath) span() (float64, bool) {
	if !p.col.HasRows() {
		return 0, false
	}
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
	switch {
	case f.wantsRows() && !p.idx.HasRows():
		f.noRows = true
	case f.op == opCount:
		f.n = p.idx.SelectCount(f.lo, f.hi)
	default:
		p.idx.SelectSegments(f.lo, f.hi, func(total int, off uint32, vals []int64, rows []uint32) {
			f.add(segment{vals: vals, rows: rows, rowBase: off, total: total})
		})
	}
	return f
}

func (p *ccgiPath) span() (float64, bool)                       { return 0, false }
func (p *ccgiPath) estimate(lo, hi int64) (float64, bool, bool) { return 0, false, false }

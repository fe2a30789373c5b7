// Access heatmaps: fixed-resolution equi-width key-range counters that
// show *where* in a column's key space the load lands — and, recorded
// from the daemon's side, where refinement effort goes. Comparing the
// two answers the capacity question the refinement ledger can't: is
// idle work being spent on the ranges queries actually touch?
//
// Each heatmap is a difference array over HeatBuckets equi-width slices
// of the column's key domain, fixed when the attribute is first seen:
// cell b holds count(b) - count(b-1), so an access of any width is two
// atomic adds — +1 where it starts, -1 past where it ends — and the
// counts are the prefix sums, taken when somebody asks. (A query span
// used to add to every bucket it overlapped, a third of them for a
// random range: most of what a range door paid for recording.) Cells are
// cache-line padded; recording is lock-free and allocation-free.

package econ

import (
	"sort"
	"sync"
	"sync/atomic"
)

// HeatBuckets is the fixed per-attribute key-range resolution. 256
// equi-width buckets keep a heatmap at one page of padded counters
// while still resolving hot ranges far narrower than any realistic
// refinement budget skew would need.
const HeatBuckets = 256

// heatCell pads each bucket counter to its own cache line so
// concurrent queries hitting adjacent key ranges don't false-share.
type heatCell struct {
	n atomic.Int64
	_ [56]byte
}

// Heatmap counts accesses per equi-width slice of one attribute's key
// domain. The domain is fixed at creation (first predicate admission);
// values outside it clamp to the edge buckets.
type Heatmap struct {
	lo, hi int64  // inclusive key domain
	width  uint64 // keys per bucket, >= 1
	// cells[b] is count(b) - count(b-1); the extra cell takes the -1 of
	// an access that ends in the last bucket.
	cells [HeatBuckets + 1]heatCell
}

// newHeatmap fixes the bucket geometry for the attribute's domain.
//
//holistic:alloc-ok heatmaps are built once per attribute at first sight
func newHeatmap(lo, hi int64) *Heatmap {
	if hi < lo {
		hi = lo
	}
	return &Heatmap{lo: lo, hi: hi, width: uint64(hi-lo)/HeatBuckets + 1}
}

// bucketOf maps a key to its bucket, clamping outside the domain. The
// width arithmetic is unsigned so full-int64 domains don't overflow.
//
//holistic:noalloc
func (h *Heatmap) bucketOf(v int64) int {
	if v <= h.lo {
		return 0
	}
	idx := uint64(v-h.lo) / h.width
	if idx >= HeatBuckets {
		return HeatBuckets - 1
	}
	return int(idx)
}

// RecordSpan counts one access of the half-open key range [lo, hi) —
// the predicate convention of the query layer.
//
//holistic:noalloc
func (h *Heatmap) RecordSpan(lo, hi int64) {
	if hi <= lo {
		return
	}
	h.record(h.bucketOf(lo), h.bucketOf(hi-1))
}

// record counts one access of buckets first..last. The +1 goes in before
// the -1 and state reads the cells from the top down, so a snapshot that
// sees the -1 also sees its +1: an access in flight can show in buckets
// past its end for one snapshot, never as a negative count.
//
//holistic:noalloc
func (h *Heatmap) record(first, last int) {
	h.cells[first].n.Add(1)
	h.cells[last+1].n.Add(-1)
}

// RecordPoint counts one access of a single key (a refinement pivot).
//
//holistic:noalloc
func (h *Heatmap) RecordPoint(v int64) {
	b := h.bucketOf(v)
	h.record(b, b)
}

// HeatmapState is a JSON-friendly copy of one heatmap: the bucket
// geometry plus the full counter array, so consumers (the /metrics
// exposition, capacity dashboards) can resolve hot ranges themselves.
type HeatmapState struct {
	Attr        string  `json:"attr"`
	Lo          int64   `json:"lo"`
	Hi          int64   `json:"hi"`
	BucketWidth int64   `json:"bucket_width"`
	Total       int64   `json:"total"`
	Peak        int64   `json:"peak"`
	PeakBucket  int     `json:"peak_bucket"`
	Counts      []int64 `json:"counts"`
}

// state snapshots the heatmap: the prefix sums of the cells, which are
// read individually, not as an atomic cut (see record for what that can
// show).
func (h *Heatmap) state(attr string) HeatmapState {
	st := HeatmapState{
		Attr:        attr,
		Lo:          h.lo,
		Hi:          h.hi,
		BucketWidth: int64(h.width),
		Counts:      make([]int64, HeatBuckets),
	}
	for i := HeatBuckets - 1; i >= 0; i-- {
		st.Counts[i] = h.cells[i].n.Load()
	}
	var n int64
	for i, d := range st.Counts {
		n += d
		st.Counts[i] = n
		st.Total += n
		if n > st.Peak {
			st.Peak = n
			st.PeakBucket = i
		}
	}
	return st
}

// HeatmapSet maps attributes to heatmaps with a copy-on-write table:
// the hot path is one atomic pointer load plus a read-only map lookup
// (allocation-free); inserting a new attribute copies the table under
// a mutex, which happens once per attribute per process.
type HeatmapSet struct {
	mu   sync.Mutex
	maps atomic.Pointer[map[string]*Heatmap]
}

//holistic:noalloc
func (s *HeatmapSet) get(attr string) *Heatmap {
	m := s.maps.Load()
	if m == nil {
		return nil
	}
	return (*m)[attr]
}

// intern returns attr's heatmap, creating it with the given domain on
// first sight.
//
//holistic:alloc-ok first-sight registration copies the read-mostly table
func (s *HeatmapSet) intern(attr string, dLo, dHi int64) *Heatmap {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.maps.Load(); old != nil {
		if h := (*old)[attr]; h != nil {
			return h
		}
	}
	next := make(map[string]*Heatmap)
	if old := s.maps.Load(); old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	h := newHeatmap(dLo, dHi)
	next[attr] = h
	s.maps.Store(&next)
	return h
}

// RecordSpan counts one access of [lo, hi) on attr, creating the
// heatmap from the domain hint [dLo, dHi] on first sight.
//
//holistic:noalloc
func (s *HeatmapSet) RecordSpan(attr string, lo, hi, dLo, dHi int64) {
	h := s.get(attr)
	if h == nil {
		h = s.intern(attr, dLo, dHi)
	}
	h.RecordSpan(lo, hi)
}

// RecordPoint counts one single-key access on attr (see RecordSpan).
//
//holistic:noalloc
func (s *HeatmapSet) RecordPoint(attr string, v, dLo, dHi int64) {
	h := s.get(attr)
	if h == nil {
		h = s.intern(attr, dLo, dHi)
	}
	h.RecordPoint(v)
}

// states snapshots every heatmap, sorted by attribute for stable JSON.
func (s *HeatmapSet) states() []HeatmapState {
	m := s.maps.Load()
	if m == nil || len(*m) == 0 {
		return nil
	}
	out := make([]HeatmapState, 0, len(*m))
	for attr, h := range *m {
		out = append(out, h.state(attr))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}

// Package econ keeps the balance sheet of holistic indexing: what the
// daemon invests in each index (refinement nanoseconds, on otherwise
// idle CPU contexts) against what queries get back (drive-stage
// latency shrinking as the index converges). The paper's argument is
// exactly this trade — idle-time investment repaid by future scans —
// and this package makes it observable per index and over time.
//
// The benefit side can't be measured directly (the unrefined latency
// of a refined index is a counterfactual), so it is estimated from the
// workload itself: every query's drive-stage nanoseconds are bucketed
// by the index's convergence ratio at the time the query ran. The mean
// drive latency of the least-converged populated bucket is the
// baseline; every query served at higher convergence is credited with
// the difference between that baseline and its bucket's mean. Modes
// without refinement put every sample in the first bucket and
// therefore report zero savings — the estimator never invents benefit.
//
// All recording paths are lock-free and allocation-free, so they sit in
// the query and daemon hot paths unconditionally.
package econ

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ConvBuckets partitions the convergence ratio [0, 1] for benefit
// bucketing. Eight buckets of width 0.125 are coarse enough to gather
// stable per-bucket means quickly and fine enough to see the latency
// slope the paper's Figure 6 shows.
const ConvBuckets = 8

// driveCell accumulates the drive-stage latency of queries served
// while the index sat in one convergence bucket. Padded so the bucket
// counters of a hot index don't false-share.
type driveCell struct {
	queries atomic.Int64
	sumNs   atomic.Int64
	_       [48]byte
}

// slot is one index's ledger entry.
type slot struct {
	invested atomic.Int64  // daemon nanoseconds spent refining
	refines  atomic.Int64  // successful refinement actions
	progress atomic.Uint64 // Float64bits of the last convergence ratio
	drive    [ConvBuckets]driveCell
}

// convBucket maps a convergence ratio to its drive bucket. NaN and
// non-positive ratios (including "never refined") land in bucket 0,
// the baseline.
//
//holistic:noalloc
func convBucket(p float64) int {
	if !(p > 0) {
		return 0
	}
	b := int(p * ConvBuckets)
	if b >= ConvBuckets {
		b = ConvBuckets - 1
	}
	return b
}

// Econ is the refinement ledger: one slot per index, in a copy-on-write
// table — allocation-free lookup, once-per-index copying insert. The
// zero value is ready to use; a store's observer holds the one instance
// its executor and daemon record into.
type Econ struct {
	mu    sync.Mutex
	slots atomic.Pointer[map[string]*slot]
}

// slotOf returns attr's ledger slot, creating it on first sight.
//
//holistic:noalloc
func (e *Econ) slotOf(attr string) *slot {
	if m := e.slots.Load(); m != nil {
		if s := (*m)[attr]; s != nil {
			return s
		}
	}
	return e.intern(attr)
}

//holistic:alloc-ok first-sight registration copies the read-mostly table
func (e *Econ) intern(name string) *slot {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.slots.Load()
	if old != nil {
		if s := (*old)[name]; s != nil {
			return s
		}
	}
	next := make(map[string]*slot)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	s := &slot{}
	next[name] = s
	e.slots.Store(&next)
	return s
}

// NoteDrive credits attr's current convergence bucket with one query's
// drive-stage nanoseconds — the benefit stream.
//
//holistic:noalloc
func (e *Econ) NoteDrive(attr string, driveNs int64) {
	s := e.slotOf(attr)
	b := convBucket(math.Float64frombits(s.progress.Load()))
	s.drive[b].queries.Add(1)
	s.drive[b].sumNs.Add(driveNs)
}

// NoteRefined records one daemon refinement pass over attr: invested
// wall nanoseconds, the number of successful refinement actions, and
// the index's convergence ratio after the pass.
//
//holistic:noalloc
func (e *Econ) NoteRefined(attr string, investedNs, refined int64, progress float64) {
	s := e.slotOf(attr)
	s.invested.Add(investedNs)
	s.refines.Add(refined)
	s.progress.Store(math.Float64bits(progress))
}

// DriveBucket is the benefit stream of one convergence interval: how
// many queries drove through the index while its convergence ratio sat
// in [LoRatio, HiRatio), and their mean drive-stage latency.
type DriveBucket struct {
	LoRatio     float64 `json:"lo_ratio"`
	HiRatio     float64 `json:"hi_ratio"`
	Queries     int64   `json:"queries"`
	MeanDriveUS float64 `json:"mean_drive_us"`
}

// IndexEconomics is one index's balance: invested refinement time vs
// estimated drive-latency savings.
type IndexEconomics struct {
	Name            string        `json:"name"`
	InvestedNS      int64         `json:"invested_ns"`
	Refinements     int64         `json:"refinements"`
	Convergence     float64       `json:"convergence"`
	DriveQueries    int64         `json:"drive_queries"`
	BaselineDriveUS float64       `json:"baseline_drive_us"`
	SavedNS         int64         `json:"saved_ns"`
	ROI             float64       `json:"roi"`
	Buckets         []DriveBucket `json:"buckets,omitempty"`
}

// Snapshot is the cold, JSON-friendly copy of the whole balance sheet.
type Snapshot struct {
	InvestedNS int64            `json:"invested_ns"`
	SavedNS    int64            `json:"saved_ns"`
	ROI        float64          `json:"roi"`
	Indexes    []IndexEconomics `json:"indexes,omitempty"`
}

// Snapshot computes the balance sheet: per index, the baseline is the
// mean drive latency of the least-converged populated bucket, and
// every query served at higher convergence is credited the (clamped
// non-negative) difference between that baseline and its own bucket's
// mean.
func (e *Econ) Snapshot() *Snapshot {
	snap := &Snapshot{}
	m := e.slots.Load()
	if m != nil && len(*m) > 0 {
		names := make([]string, 0, len(*m))
		for name := range *m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ie := (*m)[name].economics(name)
			snap.InvestedNS += ie.InvestedNS
			snap.SavedNS += ie.SavedNS
			snap.Indexes = append(snap.Indexes, ie)
		}
	}
	if snap.InvestedNS > 0 {
		snap.ROI = float64(snap.SavedNS) / float64(snap.InvestedNS)
	}
	return snap
}

// economics digests one slot.
func (s *slot) economics(name string) IndexEconomics {
	ie := IndexEconomics{
		Name:        name,
		InvestedNS:  s.invested.Load(),
		Refinements: s.refines.Load(),
		Convergence: math.Float64frombits(s.progress.Load()),
	}
	baseline := -1.0 // mean ns of the least-converged populated bucket
	var saved float64
	for b := 0; b < ConvBuckets; b++ {
		q := s.drive[b].queries.Load()
		if q == 0 {
			continue
		}
		mean := float64(s.drive[b].sumNs.Load()) / float64(q)
		ie.DriveQueries += q
		ie.Buckets = append(ie.Buckets, DriveBucket{
			LoRatio:     float64(b) / ConvBuckets,
			HiRatio:     float64(b+1) / ConvBuckets,
			Queries:     q,
			MeanDriveUS: mean / 1e3,
		})
		if baseline < 0 {
			baseline = mean
			continue
		}
		if d := baseline - mean; d > 0 {
			saved += d * float64(q)
		}
	}
	if baseline >= 0 {
		ie.BaselineDriveUS = baseline / 1e3
	}
	ie.SavedNS = int64(saved)
	if ie.InvestedNS > 0 {
		ie.ROI = float64(ie.SavedNS) / float64(ie.InvestedNS)
	}
	return ie
}

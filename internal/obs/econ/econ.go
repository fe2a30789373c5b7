// Package econ keeps the balance sheet of holistic indexing: what the
// daemon invests in each index of its index space (refinement
// nanoseconds, on otherwise idle CPU contexts) against what queries get
// back (drive-stage latency shrinking as the index converges). The
// paper's argument is exactly this trade — idle-time investment repaid
// by future scans — and this package makes it observable per index and
// over time. Each index's Ledger sits on its statistics node, so only
// indexes in a holistic index space have one.
//
// The benefit side can't be measured directly (the unrefined latency
// of a refined index is a counterfactual), so it is estimated from the
// workload itself: every query's drive-stage nanoseconds are bucketed
// by the index's convergence ratio at the time the query ran. The mean
// drive latency of the least-converged populated bucket is the
// baseline; every query served at higher convergence is credited with
// the difference between that baseline and its bucket's mean. An index
// the daemon never refined keeps every sample in the first bucket and
// therefore reports zero savings — the estimator never invents benefit.
//
// Both recording paths are lock-free and allocation-free, so they sit in
// the query and daemon hot paths unconditionally.
package econ

import (
	"math"
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

// Ledger is one index's balance: what the daemon invested in it and the
// drive-stage latency of the queries it served, per convergence bucket.
// It lives on the index's statistics node (stats.Entry), so an index
// evicted from the index space takes its ledger with it and a rebuilt
// one starts afresh. The zero value is ready to use.
type Ledger struct {
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

// NoteDrive credits the index's current convergence bucket with one
// query's drive-stage nanoseconds — the benefit stream.
//
//holistic:noalloc
func (l *Ledger) NoteDrive(driveNs int64) {
	b := convBucket(math.Float64frombits(l.progress.Load()))
	l.drive[b].queries.Add(1)
	l.drive[b].sumNs.Add(driveNs)
}

// NoteRefined records one daemon refinement pass over the index:
// invested wall nanoseconds, the number of successful refinement
// actions, and the index's convergence ratio after the pass.
//
//holistic:noalloc
func (l *Ledger) NoteRefined(investedNs, refined int64, progress float64) {
	l.invested.Add(investedNs)
	l.refines.Add(refined)
	l.progress.Store(math.Float64bits(progress))
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

// NewSnapshot totals per-index balances, in the order given, into the
// balance sheet.
func NewSnapshot(indexes []IndexEconomics) *Snapshot {
	snap := &Snapshot{Indexes: indexes}
	for _, ie := range indexes {
		snap.InvestedNS += ie.InvestedNS
		snap.SavedNS += ie.SavedNS
	}
	if snap.InvestedNS > 0 {
		snap.ROI = float64(snap.SavedNS) / float64(snap.InvestedNS)
	}
	return snap
}

// Economics digests the ledger of the index called name: the baseline
// is the mean drive latency of its least-converged populated bucket, and
// every query served at higher convergence is credited the (clamped
// non-negative) difference between that baseline and its own bucket's
// mean.
func (l *Ledger) Economics(name string) IndexEconomics {
	ie := IndexEconomics{
		Name:        name,
		InvestedNS:  l.invested.Load(),
		Refinements: l.refines.Load(),
		Convergence: math.Float64frombits(l.progress.Load()),
	}
	baseline := -1.0 // mean ns of the least-converged populated bucket
	var saved float64
	for b := 0; b < ConvBuckets; b++ {
		q := l.drive[b].queries.Load()
		if q == 0 {
			continue
		}
		mean := float64(l.drive[b].sumNs.Load()) / float64(q)
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

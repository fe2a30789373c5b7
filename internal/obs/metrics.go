// Query and executor metrics: the per-runner latency/representation/
// strategy aggregates and the per-executor access-path counters behind
// Store.Metrics. Recording is lock-free (atomics).

package obs

import "sync/atomic"

// QueryMetrics aggregates one store's query telemetry: per-op latency
// histograms and representation and strategy counters. All record
// methods are zero-allocation; the zero value is ready to use (a few
// hundred KB of histogram buckets), and the store's observer holds the
// one instance every query records into.
type QueryMetrics struct {
	seq    atomic.Uint64
	lat    [NumOps]Histogram
	reps   [NumReps]Counter
	strats [NumStrats]Counter
}

// NextSeq assigns the next query sequence number.
//
//holistic:noalloc
func (m *QueryMetrics) NextSeq() uint64 { return m.seq.Add(1) }

// RecordOp records one operator execution's latency.
//
//holistic:noalloc
func (m *QueryMetrics) RecordOp(op Op, nanos int64) {
	if op < NumOps {
		m.lat[op].RecordNanos(nanos)
	}
}

// RecordRep counts one executed intermediate representation.
//
//holistic:noalloc
func (m *QueryMetrics) RecordRep(r Rep) {
	if r < NumReps {
		m.reps[r].Inc()
	}
}

// RecordStrategy counts one executed physical strategy.
//
//holistic:noalloc
func (m *QueryMetrics) RecordStrategy(s Strat) {
	if s < NumStrats {
		m.strats[s].Inc()
	}
}

// MergedLatency merges every op's histogram into s — the cumulative
// all-operations latency distribution the flight watchdog baselines.
func (m *QueryMetrics) MergedLatency(s *HistSnapshot) {
	*s = HistSnapshot{}
	var one HistSnapshot
	for op := Op(0); op < NumOps; op++ {
		m.lat[op].Snapshot(&one)
		s.Merge(&one)
	}
}

// QuerySnapshot is the JSON view of a QueryMetrics.
type QuerySnapshot struct {
	// Queries is the number of sequenced query executions.
	Queries uint64 `json:"queries"`
	// Latency maps op name to its latency digest; ops never executed
	// are omitted.
	Latency map[string]LatencySummary `json:"latency"`
	// Representations counts executed intermediate representations.
	Representations map[string]int64 `json:"representations"`
	// Strategies counts executed physical strategies, keyed
	// "subsystem/strategy".
	Strategies map[string]int64 `json:"strategies"`
}

// Snapshot digests the metrics; cold path, allocates freely.
func (m *QueryMetrics) Snapshot() *QuerySnapshot {
	s := &QuerySnapshot{
		Queries:         m.seq.Load(),
		Latency:         make(map[string]LatencySummary),
		Representations: make(map[string]int64),
		Strategies:      make(map[string]int64),
	}
	for op := Op(0); op < NumOps; op++ {
		if m.lat[op].Count() > 0 {
			s.Latency[op.String()] = m.lat[op].Summary()
		}
	}
	for r := Rep(0); r < NumReps; r++ {
		if n := m.reps[r].Load(); n > 0 {
			s.Representations[r.String()] = n
		}
	}
	for st := Strat(0); st < NumStrats; st++ {
		if n := m.strats[st].Load(); n > 0 {
			s.Strategies[st.Subsystem()+"/"+st.String()] = n
		}
	}
	return s
}

// ExecMetrics aggregates one executor's access-path telemetry: the
// single-attribute select operations underneath every query form, index
// builds, pending-update merges and key-order walks.
type ExecMetrics struct {
	// Selects counts single-attribute select operations (count, sum,
	// minmax, row and bitmap selects); SelectLatency digests their
	// durations.
	Selects       Counter
	SelectLatency Histogram
	// CrackerBuilds counts index structures created on first touch.
	CrackerBuilds Counter
	// MergedUpdates counts pending update operations merged into index
	// structures by queries, by writes resolving their row, and by
	// checkpoint exports.
	MergedUpdates Counter
	// KeyOrderWalks counts full key-ordered index walks (the sort
	// grouping and merge join access path).
	KeyOrderWalks Counter
}

// RecordSelect records one select operation and its latency.
//
//holistic:noalloc
func (m *ExecMetrics) RecordSelect(nanos int64) {
	m.Selects.Inc()
	m.SelectLatency.RecordNanos(nanos)
}

// ExecSnapshot is the JSON view of an ExecMetrics.
type ExecSnapshot struct {
	Selects       int64          `json:"selects"`
	SelectLatency LatencySummary `json:"select_latency"`
	CrackerBuilds int64          `json:"cracker_builds"`
	MergedUpdates int64          `json:"merged_updates"`
	KeyOrderWalks int64          `json:"key_order_walks"`
}

// Snapshot digests the executor metrics.
func (m *ExecMetrics) Snapshot() *ExecSnapshot {
	return &ExecSnapshot{
		Selects:       m.Selects.Load(),
		SelectLatency: m.SelectLatency.Summary(),
		CrackerBuilds: m.CrackerBuilds.Load(),
		MergedUpdates: m.MergedUpdates.Load(),
		KeyOrderWalks: m.KeyOrderWalks.Load(),
	}
}

// The public observability surface (DESIGN.md §9): per-query Explain
// reports, the JSONL trace stream, and the Store.Metrics snapshot that
// backs the /debug/holistic endpoint.

package holistic

import (
	"io"
	"os"
	"time"

	"holistic/internal/groupby"
	"holistic/internal/holistic"
	"holistic/internal/obs"
	"holistic/internal/obs/econ"
)

// ExplainConjunct is one planned range conjunct of an Explain report,
// in pipeline (most-selective-first) order.
type ExplainConjunct struct {
	// Side is "" for single-relation queries, "left"/"right" for joins.
	Side string
	Attr string
	// The conjunct selects Lo <= Attr < Hi.
	Lo, Hi int64
	// EstRows is the planner's standalone cardinality estimate — exact
	// where the mode's index structures can answer, a uniform-domain
	// guess otherwise.
	EstRows float64
	// ActualRows is the conjunct's true standalone match count, measured
	// by an O(N) oracle probe (Explain only; -1 on error paths).
	ActualRows int64
	// SurvivingRows is the candidate count left after this conjunct in
	// pipeline order; -1 when the stage never ran (an earlier conjunct
	// emptied the selection).
	SurvivingRows int64
	// Driving marks the conjunct evaluated through the mode's native
	// access path.
	Driving bool
	// Applied is how the planner's rule chose to refine the selection by
	// a residual conjunct: "index" (selected through its own access path
	// and intersected; probed after all if a write to the attribute raced
	// the select) or "probe" (filtered at each candidate); "" for the
	// driving conjunct and for one the selection was already empty before. Candidates, IndexRows
	// (-1 without a selectable path) and CrackWork are what the planner's
	// rule weighed: candidates × probe against rows × mark + work × crack.
	Applied    string
	Candidates int64
	IndexRows  float64
	CrackWork  int64
}

// ExplainStage is one timed pipeline stage of an Explain report.
type ExplainStage struct {
	Name     string
	Duration time.Duration
}

// Explain is the execution report of one traced query: what the
// planner estimated, what actually happened, and which physical
// choices (representation, grouping/join strategy) were made and why.
type Explain struct {
	// Kind is the terminal ("count", "sum", "grouped", "join", ...);
	// Mode the executor mode label the query ran under.
	Kind, Mode string
	// Rows is the relation's row count (the left relation for joins);
	// RowsRight the right relation's for joins.
	Rows, RowsRight int
	// Representation names the intermediate selection representation
	// ("bitmap", "poslist", or "native" for single-conjunct pushdowns),
	// with the planner's reason.
	Representation, RepresentationReason string
	// Strategy names the physical grouping or join strategy ("dense",
	// "hash", "sort", "merge"), with the reason it won.
	Strategy, StrategyReason string
	Conjuncts                []ExplainConjunct
	Stages                   []ExplainStage
	// Stats carries the numeric statistics that drove the decisions
	// (key-order spans, selection densities, ...).
	Stats map[string]float64
	// Scanned is the driving select's candidate count, Emitted the
	// final row/group/pair count, Result the scalar answer where one
	// exists.
	Scanned, Emitted, Result int64
	Elapsed                  time.Duration

	text string
}

// String renders the report in the human-readable explain format.
func (e *Explain) String() string { return e.text }

// explainFrom converts the internal trace into the public report.
func explainFrom(tr *obs.QueryTrace) *Explain {
	e := &Explain{
		Kind: tr.Kind, Mode: tr.Mode,
		Rows: tr.Rows, RowsRight: tr.RowsRight,
		Representation: tr.Rep, RepresentationReason: tr.RepReason,
		Strategy: tr.Strategy, StrategyReason: tr.StrategyReason,
		Scanned: tr.Scanned, Emitted: tr.Emitted, Result: tr.Result,
		Elapsed: time.Duration(tr.TotalNanos),
		text:    tr.String(),
	}
	for _, c := range tr.Conjuncts {
		e.Conjuncts = append(e.Conjuncts, ExplainConjunct{
			Side: c.Side, Attr: c.Attr, Lo: c.Lo, Hi: c.Hi,
			EstRows: c.EstRows, ActualRows: c.ActualRows,
			SurvivingRows: c.CumRows, Driving: c.Driving,
			Applied: c.Applied, Candidates: c.Candidates, IndexRows: c.IndexRows, CrackWork: c.CrackWork,
		})
	}
	for _, st := range tr.Stages {
		e.Stages = append(e.Stages, ExplainStage{Name: st.Name, Duration: time.Duration(st.Nanos)})
	}
	if len(tr.Stat) > 0 {
		e.Stats = make(map[string]float64, len(tr.Stat))
		for k, v := range tr.Stat {
			e.Stats[k] = v
		}
	}
	return e
}

// Explain executes the query as a count with tracing forced on and
// returns the execution report: per-conjunct estimated versus actual
// selectivity (the actuals measured by an O(N) oracle probe per
// conjunct — Explain is a diagnostic, not a hot path) and the
// representation choice with its reason.
func (q *Query) Explain() (*Explain, error) {
	r, err := q.s.runner()
	if err != nil {
		return nil, err
	}
	tr, _, err := r.ExplainCount(q.preds)
	if err != nil {
		return nil, err
	}
	return explainFrom(tr), nil
}

// Explain executes the grouped aggregation with tracing forced on and
// returns the execution report, including the physical grouping
// strategy (dense, hash, or sort) and the statistics that drove the
// choice. Aggregates default to count(*) when none are given.
func (g *GroupedQuery) Explain(aggs ...Agg) (*Explain, error) {
	r, err := g.q.s.runner()
	if err != nil {
		return nil, err
	}
	if len(aggs) == 0 {
		aggs = []Agg{Count()}
	}
	specs := make([]groupby.Agg, len(aggs))
	for i, a := range aggs {
		specs[i] = a.agg
	}
	res := &groupby.Result{}
	tr, err := r.ExplainGrouped(res, g.keys, specs, g.q.preds)
	if err != nil {
		return nil, err
	}
	return explainFrom(tr), nil
}

// Explain executes the join as a count with tracing forced on and
// returns the execution report: side-scoped conjuncts with estimated
// versus actual selectivity, and the physical join strategy (hash or
// index-clustered merge) with the key-order statistics that drove it.
func (jq *JoinQuery) Explain() (*Explain, error) {
	j, err := jq.build()
	if err != nil {
		return nil, err
	}
	tr, _, err := j.Explain()
	if err != nil {
		return nil, err
	}
	return explainFrom(tr), nil
}

// SetTraceJSONL streams every executed query's trace to w as one JSON
// object per line (the schema of DESIGN.md §9); nil detaches (flushing
// any buffered lines). Writes are buffered and happen synchronously at
// query end under an internal mutex; Store.Close flushes the stream,
// and write/encode errors surface as counters in Store.Metrics instead
// of failing queries. The caller owns closing w.
func (s *Store) SetTraceJSONL(w io.Writer) error {
	if w == nil {
		return s.setTraceSink(nil)
	}
	return s.setTraceSink(obs.NewJSONLSink(w))
}

// SetTraceJSONLFile streams traces to path, bounding the file at
// maxBytes (0 selects 64 MiB): when the cap is hit the file rotates to
// path+".1" (replacing any previous rotation) and a fresh file starts,
// so an always-on trace stream holds at most ~2x maxBytes of disk. The
// store owns the file; Close flushes and closes it.
func (s *Store) SetTraceJSONLFile(path string, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSinkOptions(f, obs.SinkOptions{
		MaxBytes:  maxBytes,
		OwnWriter: true,
		Rotate: func() (io.WriteCloser, error) {
			if err := os.Rename(path, path+".1"); err != nil {
				return nil, err
			}
			return os.Create(path)
		},
	})
	if err := s.setTraceSink(sink); err != nil {
		_ = f.Close()
		return err
	}
	return nil
}

// setTraceSink swaps the observer's trace sink, flushing and closing any
// sink the store previously owned.
func (s *Store) setTraceSink(sink *obs.JSONLSink) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	old := s.traceSink
	s.traceSink = sink
	s.mu.Unlock()
	if sink == nil {
		s.ob.TraceTo(nil) // a nil *JSONLSink must not become a non-nil interface
	} else {
		s.ob.TraceTo(sink)
	}
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// Metrics is the full telemetry snapshot of one Store: lifetime query
// latency histograms and physical-choice counters, access-path
// counters, and — under ModeHolistic — the daemon's convergence state.
// It marshals to the JSON served per store on /debug/holistic.
type Metrics struct {
	// Mode echoes the configured mode; Rows the relation's row count.
	Mode string `json:"mode"`
	Rows int    `json:"rows"`
	// Query aggregates the conjunctive query pipeline: query count,
	// per-operation latency summaries (p50/p90/p99/p999),
	// representation and strategy counters, and the strategy-transition
	// timeline.
	Query *obs.QuerySnapshot `json:"query"`
	// Exec aggregates the mode's access path: select latency, cracker
	// builds, merged pending updates, key-order index walks.
	Exec *obs.ExecSnapshot `json:"exec"`
	// Daemon reports background-refinement convergence (ModeHolistic
	// only): per-column state timelines, refinement and reroll
	// counters, cycle totals, and the overall convergence ratio.
	Daemon *holistic.Convergence `json:"daemon,omitempty"`
	// Recovery reports the durability layer (stores opened with
	// OpenStore only): WAL activity, snapshot generations, and what the
	// last recovery found and replayed.
	Recovery *obs.DurableSnapshot `json:"recovery,omitempty"`
	// Flight reports the flight recorder and its watchdog: ring
	// occupancy, rolling baselines, anomaly counts (DESIGN.md §9).
	Flight *FlightStatus `json:"flight,omitempty"`
	// Economics reports the refinement cost-benefit ledger: per-index
	// daemon time invested versus estimated drive-latency savings
	// (DESIGN.md §9).
	Economics *econ.Snapshot `json:"economics,omitempty"`
	// Trace reports the JSONL trace sink attached via SetTraceJSONL /
	// SetTraceJSONLFile: lines and bytes written, write errors (which
	// would otherwise drop silently), and file rotations.
	Trace *obs.TraceSinkStatus `json:"trace,omitempty"`

	// The raw latency buckets behind Query.Latency (all operations
	// merged) and Exec.SelectLatency: the Prometheus collector renders
	// its histograms from the same snapshot the JSON digests come from.
	queryLatency, selectLatency obs.HistSnapshot
}

// Metrics returns the store's telemetry snapshot. Like Stats it is a
// pure read: it never builds the executor as a side effect, and it is
// safe to call concurrently with queries (the recording side is
// lock-free).
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	exec := s.exec.Load()
	rows := s.table.Rows()
	sink := s.traceSink
	s.mu.Unlock()
	m := Metrics{
		Mode:      s.cfg.Mode.String(),
		Rows:      rows,
		Query:     s.ob.Query.Snapshot(),
		Exec:      s.ob.Exec.Snapshot(),
		Economics: s.ob.Econ.Snapshot(),
	}
	s.ob.Query.MergedLatency(&m.queryLatency)
	s.ob.Exec.SelectLatency.Snapshot(&m.selectLatency)
	if d := daemonOf(exec); d != nil {
		m.Daemon = d.Convergence()
	}
	if s.dur != nil {
		m.Recovery = s.dur.snapshotMetrics()
	}
	if fr := s.ob.Flight; fr != nil {
		m.Flight = &FlightStatus{
			EventsRecorded: fr.Head(),
			RingCapacity:   fr.Cap(),
			DumpKeep:       flightDumpKeep,
			Watchdog:       s.ob.Watchdog.State(),
		}
	}
	if sink != nil {
		st := sink.Snapshot()
		m.Trace = &st
	}
	return m
}

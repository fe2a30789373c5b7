// Per-query execution traces: the pooled QueryTrace the query runner
// fills while executing — predicate order, estimated vs. actual
// selectivity per conjunct, the chosen representation and strategy with
// their reasons and driving statistics, rows scanned/emitted and
// per-stage durations — and the sink interface that streams finished
// traces as JSONL.

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// ConjunctTrace records one planned range conjunct in pipeline order.
type ConjunctTrace struct {
	// Side is "" for single-relation queries, "left"/"right" for joins.
	Side string `json:"side,omitempty"`
	Attr string `json:"attr"`
	Lo   int64  `json:"lo"`
	Hi   int64  `json:"hi"`
	// EstRows is the planner's cardinality estimate for this conjunct
	// standalone (exact from index structures where available,
	// uniform-domain otherwise).
	EstRows float64 `json:"est_rows"`
	// Driving marks the conjunct that ran through the mode's native
	// access path (the most selective one).
	Driving bool `json:"driving,omitempty"`
	// CumRows is the number of candidates surviving after this conjunct
	// in pipeline order; -1 when the stage was skipped (an earlier
	// conjunct emptied the selection).
	CumRows int64 `json:"cum_rows"`
	// ActualRows is this conjunct's standalone match count, measured by
	// the Explain path only (an O(N) probe per conjunct); -1 when not
	// measured.
	ActualRows int64 `json:"actual_rows"`
	// Applied is how the planner's rule chose to apply a residual
	// conjunct: "index" (selected through its attribute's own access path
	// and intersected — probed after all if a write raced the select) or
	// "probe" (its candidates filtered through the attribute's view); ""
	// for the driving conjunct and for one skipped. Candidates, IndexRows and
	// CrackWork are the inputs of the rule that chose: the candidates
	// left before the conjunct, the index's estimate of its rows (-1 with
	// no selectable path) and the values a select would partition first.
	Applied    string  `json:"applied,omitempty"`
	Candidates int64   `json:"candidates,omitempty"`
	IndexRows  float64 `json:"index_rows,omitempty"`
	CrackWork  int64   `json:"crack_work,omitempty"`
}

// StageTrace is one timed pipeline stage of a traced query.
type StageTrace struct {
	Name  string `json:"stage"`
	Nanos int64  `json:"ns"`
}

// QueryTrace is the execution trace of one query. Instances are pooled
// (GetTrace/PutTrace) on the sink path and owned by the caller on the
// Explain path; sinks must not retain the trace after Emit returns.
type QueryTrace struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	Mode string `json:"mode"`
	// Rows is the relation's row count (the left relation for joins);
	// selectivities are conjunct rows over this universe.
	Rows int `json:"rows"`
	// RowsRight is the right relation's row count for joins.
	RowsRight int `json:"rows_right,omitempty"`

	Rep       string `json:"rep,omitempty"`
	RepReason string `json:"rep_reason,omitempty"`

	Strategy       string `json:"strategy,omitempty"`
	StrategyReason string `json:"strategy_reason,omitempty"`

	Conjuncts []ConjunctTrace `json:"conjuncts,omitempty"`
	Stages    []StageTrace    `json:"stages,omitempty"`
	// Stat carries the numeric statistics that drove strategy and
	// representation decisions (key spans, selection densities, ...).
	Stat map[string]float64 `json:"stats,omitempty"`

	// Scanned is the candidate count the driving select produced;
	// Emitted the final row/group/pair count; Result the terminal's
	// scalar answer where one exists (count, sum).
	Scanned    int64  `json:"scanned"`
	Emitted    int64  `json:"emitted"`
	Result     int64  `json:"result"`
	TotalNanos int64  `json:"total_ns"`
	Err        string `json:"err,omitempty"`

	// curBase/curSide scope conjunct recording to the side currently
	// executing (joins run their sides sequentially through one trace).
	curBase int
	curSide string
}

// Reset clears the trace for reuse, retaining slice and map capacity.
//
//holistic:noalloc
func (t *QueryTrace) Reset() {
	t.Seq, t.Kind, t.Mode, t.Rows, t.RowsRight = 0, "", "", 0, 0
	t.Rep, t.RepReason, t.Strategy, t.StrategyReason = "", "", "", ""
	t.Conjuncts = t.Conjuncts[:0]
	t.Stages = t.Stages[:0]
	clear(t.Stat)
	t.Scanned, t.Emitted, t.Result, t.TotalNanos = 0, 0, 0, 0
	t.Err = ""
	t.curBase, t.curSide = 0, ""
}

// The recording methods below accept a nil receiver, the way the
// observer's do: an untraced query calls them and pays one pointer
// compare. A caller guards a call itself only where computing the
// argument costs a pass (a bitmap popcount).

// SetRelation records the executing mode and the relation's row count.
//
//holistic:noalloc
func (t *QueryTrace) SetRelation(mode string, rows int) {
	if t != nil {
		t.Mode, t.Rows = mode, rows
	}
}

// SetRowsRight records a join's right relation's row count.
//
//holistic:noalloc
func (t *QueryTrace) SetRowsRight(rows int) {
	if t != nil {
		t.RowsRight = rows
	}
}

// BeginSide scopes subsequent conjunct recording to one join side
// ("left"/"right"; "" for single-relation queries).
//
//holistic:noalloc
func (t *QueryTrace) BeginSide(side string) {
	if t != nil {
		t.curSide, t.curBase = side, len(t.Conjuncts)
	}
}

// AddConjunct appends one planned conjunct for the current side.
//
//holistic:noalloc
func (t *QueryTrace) AddConjunct(attr string, lo, hi int64, est float64, driving bool) {
	if t == nil {
		return
	}
	t.Conjuncts = append(t.Conjuncts, ConjunctTrace{
		Side: t.curSide, Attr: attr, Lo: lo, Hi: hi,
		EstRows: est, Driving: driving, CumRows: -1, ActualRows: -1,
	})
}

// SetCum records the surviving candidate count after the i-th conjunct
// (pipeline order) of the current side.
//
//holistic:noalloc
func (t *QueryTrace) SetCum(i int, n int64) {
	if t == nil {
		return
	}
	if idx := t.curBase + i; idx >= 0 && idx < len(t.Conjuncts) {
		t.Conjuncts[idx].CumRows = n
	}
}

// SetApplied records how the i-th conjunct (pipeline order) of the
// current side was applied, with the inputs of the rule that chose.
//
//holistic:noalloc
func (t *QueryTrace) SetApplied(i int, how string, candidates int64, indexRows float64, crackWork int64) {
	if t == nil {
		return
	}
	if idx := t.curBase + i; idx >= 0 && idx < len(t.Conjuncts) {
		c := &t.Conjuncts[idx]
		c.Applied, c.Candidates, c.IndexRows, c.CrackWork = how, candidates, indexRows, crackWork
	}
}

// SetRep records the intermediate representation and why it was chosen.
//
//holistic:noalloc
func (t *QueryTrace) SetRep(rep Rep, reason string) {
	if t != nil {
		t.Rep, t.RepReason = rep.String(), reason
	}
}

// SetStrategy records the executed physical strategy and why.
//
//holistic:noalloc
func (t *QueryTrace) SetStrategy(s Strat, reason string) {
	if t != nil {
		t.Strategy, t.StrategyReason = s.String(), reason
	}
}

// SetScanned records the candidate count the driving select produced.
//
//holistic:noalloc
func (t *QueryTrace) SetScanned(n int64) {
	if t != nil {
		t.Scanned = n
	}
}

// SetEmitted records the final row/group/pair count.
//
//holistic:noalloc
func (t *QueryTrace) SetEmitted(n int64) {
	if t != nil {
		t.Emitted = n
	}
}

// StageNanos appends a stage whose duration the caller measured (shared
// with the flight recorder's per-stage timings).
//
//holistic:noalloc
func (t *QueryTrace) StageNanos(name string, nanos int64) {
	if t != nil {
		t.Stages = append(t.Stages, StageTrace{Name: name, Nanos: nanos})
	}
}

// SetStat records one named decision statistic.
//
//holistic:noalloc
func (t *QueryTrace) SetStat(name string, v float64) {
	if t == nil || t.Stat == nil {
		return // only a zero-value literal lacks the map
	}
	t.Stat[name] = v
}

// String renders the trace as a human-readable explain report.
func (t *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s query under %q over %d rows", t.Kind, t.Mode, t.Rows)
	if t.RowsRight > 0 {
		fmt.Fprintf(&b, " ⋈ %d rows", t.RowsRight)
	}
	b.WriteString("\n")
	if t.Rep != "" {
		fmt.Fprintf(&b, "  representation: %s (%s)\n", t.Rep, t.RepReason)
	}
	if t.Strategy != "" {
		fmt.Fprintf(&b, "  strategy: %s (%s)\n", t.Strategy, t.StrategyReason)
	}
	for _, c := range t.Conjuncts {
		rows := t.Rows
		if c.Side == "right" {
			rows = t.RowsRight
		}
		fmt.Fprintf(&b, "  conjunct %s%s in [%d,%d): est %.0f rows (%.4f)",
			sidePrefix(c.Side), c.Attr, c.Lo, c.Hi, c.EstRows, selectivity(c.EstRows, rows))
		if c.ActualRows >= 0 {
			fmt.Fprintf(&b, ", actual %d (%.4f)", c.ActualRows, selectivity(float64(c.ActualRows), rows))
		}
		if c.Driving {
			b.WriteString(", driving")
		}
		if c.Applied != "" {
			fmt.Fprintf(&b, ", %s (%d candidates, ", c.Applied, c.Candidates)
			if c.IndexRows < 0 {
				b.WriteString("no selectable path)")
			} else {
				fmt.Fprintf(&b, "index est %.0f rows, crack work %d)", c.IndexRows, c.CrackWork)
			}
		}
		if c.CumRows >= 0 {
			fmt.Fprintf(&b, ", surviving %d", c.CumRows)
		}
		b.WriteString("\n")
	}
	for _, s := range t.Stages {
		fmt.Fprintf(&b, "  stage %-8s %v\n", s.Name, time.Duration(s.Nanos))
	}
	keys := make([]string, 0, len(t.Stat))
	for k := range t.Stat {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  stat %s = %.3f\n", k, t.Stat[k])
	}
	fmt.Fprintf(&b, "  scanned %d, emitted %d, result %d, total %v\n",
		t.Scanned, t.Emitted, t.Result, time.Duration(t.TotalNanos))
	if t.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", t.Err)
	}
	return b.String()
}

func sidePrefix(side string) string {
	if side == "" {
		return ""
	}
	return side + "."
}

func selectivity(rows float64, universe int) float64 {
	if universe <= 0 {
		return 0
	}
	return rows / float64(universe)
}

// sortStrings is a tiny insertion sort so String needs no sort import.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// tracePool recycles sink-path traces; the Explain path allocates fresh
// caller-owned traces through NewTrace instead.
var tracePool = sync.Pool{New: func() any { return NewTrace() }}

// NewTrace allocates a fresh trace with its stat map initialized.
func NewTrace() *QueryTrace {
	return &QueryTrace{Stat: make(map[string]float64, 8)}
}

// GetTrace takes a reset trace from the pool.
//
//holistic:alloc-ok pool warm-up allocates the recycled trace
func GetTrace() *QueryTrace {
	return tracePool.Get().(*QueryTrace)
}

// PutTrace resets tr and returns it to the pool.
//
//holistic:noalloc
func PutTrace(tr *QueryTrace) {
	tr.Reset()
	tracePool.Put(tr)
}

// TraceSink consumes finished query traces. Emit is called
// synchronously at query end with a pooled trace; implementations must
// not retain tr after returning and should be fast (buffer or drop).
type TraceSink interface {
	Emit(tr *QueryTrace)
}

// JSONLSink writes one JSON object per trace to an io.Writer, guarded
// by a mutex so concurrent queries interleave whole lines. The stream
// is bounded: writes go through an internal buffer (flushed by Flush
// and Close), the line/byte/error counters surface into Store.Metrics
// instead of dropping silently, and an optional rotate callback caps
// the bytes written to one target (SinkOptions.MaxBytes).
type JSONLSink struct {
	mu      sync.Mutex
	w       io.Writer
	bw      *bufio.Writer
	enc     *json.Encoder
	written int64 // bytes handed to the current target since last rotation
	opts    SinkOptions

	lines     Counter
	bytes     Counter
	errors    Counter
	rotations Counter
}

// SinkOptions tunes a JSONLSink beyond the plain writer.
type SinkOptions struct {
	// MaxBytes caps the bytes written to one target; when exceeded the
	// sink flushes, closes the current target (if it is a Closer) and
	// asks Rotate for the next one. 0 disables rotation.
	MaxBytes int64
	// Rotate opens the next target after a size cap is hit. Required
	// when MaxBytes > 0.
	Rotate func() (io.WriteCloser, error)
	// OwnWriter makes Close close the target (for sinks over files the
	// sink itself opened).
	OwnWriter bool
}

// NewJSONLSink builds a buffered sink over w; call Flush (or Close) to
// push buffered lines to the writer. The caller owns closing w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return NewJSONLSinkOptions(w, SinkOptions{})
}

// NewJSONLSinkOptions builds a sink with rotation/ownership options.
func NewJSONLSinkOptions(w io.Writer, opts SinkOptions) *JSONLSink {
	s := &JSONLSink{w: w, bw: bufio.NewWriterSize(w, 1<<15), opts: opts}
	s.enc = json.NewEncoder(s.bw)
	return s
}

// Emit implements TraceSink. Encoding errors are counted (see
// Snapshot) but never fail the query being traced.
func (s *JSONLSink) Emit(tr *QueryTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.bw.Buffered()
	if err := s.enc.Encode(tr); err != nil {
		s.errors.Inc()
		return
	}
	// Bytes accepted by the encoder this call: what grew the buffer
	// plus what a mid-encode flush pushed down.
	n := int64(s.bw.Buffered() - before)
	if n < 0 {
		n = 0
	}
	s.lines.Inc()
	s.bytes.Add(n)
	s.written += n
	if s.opts.MaxBytes > 0 && s.written >= s.opts.MaxBytes && s.opts.Rotate != nil {
		s.rotateLocked()
	}
}

// rotateLocked flushes and swaps the target for a fresh one.
func (s *JSONLSink) rotateLocked() {
	if err := s.bw.Flush(); err != nil {
		s.errors.Inc()
	}
	next, err := s.opts.Rotate()
	if err != nil {
		s.errors.Inc()
		s.written = 0 // keep writing to the old target rather than stall
		return
	}
	if c, ok := s.w.(io.Closer); ok {
		_ = c.Close()
	}
	s.w = next
	s.bw.Reset(next)
	s.written = 0
	s.rotations.Inc()
}

// Flush pushes buffered lines to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil {
		s.errors.Inc()
		return err
	}
	return nil
}

// Close flushes and, when the sink owns its writer, closes it.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.bw.Flush()
	if err != nil {
		s.errors.Inc()
	}
	if s.opts.OwnWriter {
		if c, ok := s.w.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// TraceSinkStatus is the sink's counter snapshot, surfaced through
// Store.Metrics so dropped or failing trace writes are visible.
type TraceSinkStatus struct {
	Lines     int64 `json:"lines"`
	Bytes     int64 `json:"bytes"`
	Errors    int64 `json:"write_errors"`
	Rotations int64 `json:"rotations"`
}

// Snapshot captures the sink counters.
func (s *JSONLSink) Snapshot() TraceSinkStatus {
	return TraceSinkStatus{
		Lines:     s.lines.Load(),
		Bytes:     s.bytes.Load(),
		Errors:    s.errors.Load(),
		Rotations: s.rotations.Load(),
	}
}

// Package bench regenerates every table and figure of the paper's
// evaluation (Section 5) at a configurable, reduced scale: each
// experiment builds its workload and executors from the other internal
// packages, measures what the paper measures, and emits the same rows or
// series the paper reports. cmd/holisticbench drives it from the command
// line; bench_test.go at the repository root wires each experiment into
// `go test -bench`.
//
// Scale defaults are chosen so the full suite runs on a laptop-class
// machine in minutes (the paper used 2^30-value columns and 32 hardware
// contexts; see DESIGN.md §3 for the mapping).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"holistic/internal/column"
	"holistic/internal/engine"
	"holistic/internal/obs"
	"holistic/internal/workload"
)

// Params are the global scale knobs shared by all experiments.
type Params struct {
	// ColumnSize is the number of values per attribute (paper: 2^30).
	ColumnSize int
	// Queries is the workload length (paper: 10^3).
	Queries int
	// Attrs is the number of attributes (paper: 10).
	Attrs int
	// Domain is the attribute value domain (paper: 2^30).
	Domain int64
	// Threads is the hardware-context budget (paper: 32).
	Threads int
	// Interval is the daemon tuning interval (paper: 1 s; scaled down
	// with the column size so a comparable number of tuning cycles fits
	// into the shorter workload).
	Interval time.Duration
	// Refinements is x, the refinements per worker activation.
	Refinements int
	// L1Values is the optimal piece size in values.
	L1Values int
	// TPCHOrders is the ORDERS cardinality for Figure 14.
	TPCHOrders int
	// Seed fixes all generators.
	Seed int64
	// DataDir is where durability experiments persist their store; a
	// fresh temporary directory per run when empty.
	DataDir string
}

// DefaultParams returns the reduced-scale defaults.
func DefaultParams() Params {
	return Params{
		ColumnSize:  1 << 20,
		Queries:     1000,
		Attrs:       10,
		Domain:      1 << 30,
		Threads:     runtime.GOMAXPROCS(0),
		Interval:    2 * time.Millisecond,
		Refinements: 16,
		L1Values:    4096,
		TPCHOrders:  20000,
		Seed:        42,
	}
}

// Result is one regenerated table or figure.
type Result struct {
	Name    string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	Elapsed time.Duration
	// Percentiles carries per-cell latency digests (count, mean and
	// p50/p90/p99/p999 in µs), keyed e.g. "holistic/count" — part of
	// the exported BENCH_*.json schema.
	Percentiles map[string]obs.LatencySummary `json:",omitempty"`
}

// AddPercentiles records one labeled latency digest; empty digests
// (nothing recorded under that op) are skipped.
func (r *Result) AddPercentiles(label string, s obs.LatencySummary) {
	if s.Count == 0 {
		return
	}
	if r.Percentiles == nil {
		r.Percentiles = make(map[string]obs.LatencySummary)
	}
	r.Percentiles[label] = s
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-text note under the table.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s (elapsed %v)\n", r.Name, r.Title, r.Elapsed.Round(time.Millisecond))
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.Percentiles) > 0 {
		labels := make([]string, 0, len(r.Percentiles))
		for l := range r.Percentiles {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			p := r.Percentiles[l]
			fmt.Fprintf(w, "  latency %-24s n=%-6d p50=%.1fµs p90=%.1fµs p99=%.1fµs\n",
				l, p.Count, p.P50US, p.P90US, p.P99US)
		}
	}
	fmt.Fprintln(w)
}

// Experiment is a registered figure/table reproduction.
type Experiment struct {
	Name  string
	Title string
	Run   func(Params) (*Result, error)
}

var registry []Experiment

func register(name, title string, run func(Params) (*Result, error)) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// Experiments lists all registered experiments in a stable order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes one experiment by name.
func Run(name string, p Params) (*Result, error) {
	for _, e := range registry {
		if e.Name == name {
			start := time.Now()
			res, err := e.Run(p)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", name, err)
			}
			res.Name = e.Name
			res.Title = e.Title
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, names())
}

func names() string {
	var ns []string
	for _, e := range Experiments() {
		ns = append(ns, e.Name)
	}
	return strings.Join(ns, ", ")
}

// --- shared experiment plumbing ---

// attrName maps a workload attribute index to its column name.
func attrName(a int) string { return fmt.Sprintf("c%02d", a) }

// buildTable generates the synthetic microbenchmark relation: Attrs
// columns of ColumnSize uniform values over Domain.
func buildTable(p Params) *engine.Table {
	t := engine.NewTable("R")
	for a := 0; a < p.Attrs; a++ {
		vals := workload.UniformColumn(p.ColumnSize, p.Domain, p.Seed+int64(a))
		t.MustAddColumn(column.New(attrName(a), vals))
	}
	return t
}

// timeQueries drives the query sequence through an executor one query at
// a time, returning per-query durations.
func timeQueries(exec *engine.Executor, qs []workload.Query) ([]time.Duration, error) {
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		start := time.Now()
		if _, err := exec.Count(attrName(q.Attr), q.Lo, q.Hi); err != nil {
			return nil, err
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// cumulative converts per-query durations into the cumulative series the
// paper's Figure 6(a) plots, sampled at the given checkpoints.
func cumulative(times []time.Duration, checkpoints []int) []time.Duration {
	out := make([]time.Duration, len(checkpoints))
	var acc time.Duration
	next := 0
	for i, t := range times {
		acc += t
		for next < len(checkpoints) && i+1 == checkpoints[next] {
			out[next] = acc
			next++
		}
	}
	for next < len(checkpoints) {
		out[next] = acc
		next++
	}
	return out
}

// sum adds durations.
func sum(ts []time.Duration) time.Duration {
	var acc time.Duration
	for _, t := range ts {
		acc += t
	}
	return acc
}

// ms formats a duration in milliseconds with 1 decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// secs formats a duration in seconds with 3 decimals.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// checkpointsFor picks log-spaced checkpoints 1, 10, 100, ... up to n.
func checkpointsFor(n int) []int {
	var cps []int
	for c := 1; c < n; c *= 10 {
		cps = append(cps, c)
	}
	cps = append(cps, n)
	return cps
}

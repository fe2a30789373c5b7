// Package obs is the telemetry core: lock-free counters, log-linear
// latency histograms, pooled per-query execution traces and the process
// metrics registry behind Store.Metrics, /debug/holistic and the JSONL
// trace sink.
//
// Everything on the recording side is built to be callable from
// //holistic:noalloc hot paths: counters and histogram buckets are
// plain atomics, traces are pooled and filled through self-append
// scratch, and every record function is annotated and verified by
// holisticlint. The reading side (snapshots, quantiles, JSON) is cold
// and allocates freely.
//
// The package depends only on the standard library so every layer of
// the engine — column kernels, executors, the query runner, the
// daemon — can record into it without import cycles.
package obs

import "sync/atomic"

// Counter is a lock-free monotonic (or signed) event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//holistic:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//holistic:noalloc
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
//
//holistic:noalloc
func (c *Counter) Load() int64 { return c.v.Load() }

// Op identifies one query-operator shape for per-op latency histograms.
type Op uint8

const (
	OpCount Op = iota
	OpSum
	OpMinMax
	OpRows
	OpValues
	OpGrouped
	OpJoin
	// NumOps sizes per-op arrays.
	NumOps
)

// String names the op as it appears in snapshots and trace kinds.
func (o Op) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpMinMax:
		return "minmax"
	case OpRows:
		return "rows"
	case OpValues:
		return "values"
	case OpGrouped:
		return "grouped"
	case OpJoin:
		return "join"
	default:
		return "op?"
	}
}

// Rep identifies the intermediate selection-vector representation a
// conjunctive query executed with.
type Rep uint8

const (
	// RepBitmap: word-packed bitmap intermediates.
	RepBitmap Rep = iota
	// RepPosList: materialized position-list intermediates.
	RepPosList
	// RepNative: a single conjunct answered by the mode's native
	// pushdown, no intermediate at all.
	RepNative
	// NumReps sizes per-representation arrays.
	NumReps
)

// String names the representation.
func (r Rep) String() string {
	switch r {
	case RepBitmap:
		return "bitmap"
	case RepPosList:
		return "poslist"
	case RepNative:
		return "native"
	default:
		return "rep?"
	}
}

// Strat identifies one executed physical strategy of the grouped or
// join subsystem; the per-runner strategy counters are keyed by it.
type Strat uint8

const (
	StratGroupDense Strat = iota
	StratGroupHash
	StratGroupSort
	StratJoinHash
	StratJoinMerge
	// NumStrats sizes per-strategy arrays.
	NumStrats
)

// Subsystem names the strategy's subsystem ("groupby" or "join").
func (s Strat) Subsystem() string {
	if s >= StratJoinHash {
		return "join"
	}
	return "groupby"
}

// String names the strategy.
func (s Strat) String() string {
	switch s {
	case StratGroupDense:
		return "dense"
	case StratGroupHash:
		return "hash"
	case StratGroupSort:
		return "sort"
	case StratJoinHash:
		return "hash"
	case StratJoinMerge:
		return "merge"
	default:
		return "strat?"
	}
}

// The store's Prometheus collector (DESIGN.md §9): every Store's
// registry entry carries it, and each scrape of the shared /metrics
// exposition renders one Store.Metrics snapshot through it — counters,
// latency histograms, daemon convergence and refinement investment —
// through the scrape's shared prom.Writer. Naming follows the Prometheus conventions adapted to
// this codebase's units: histograms and the invested series carry an
// explicit _ns suffix (the repo measures in nanoseconds, not seconds),
// cumulative counters end in _total, and every series is labeled with
// the store's registry name so several stores in one process stay
// distinguishable.

package holistic

import (
	"math"
	"sort"
	"strconv"

	"holistic/internal/holistic"
	"holistic/internal/obs"
	"holistic/internal/obs/prom"
)

// promCollect streams the store's samples into one scrape, all of them
// read off one Metrics snapshot. Cold path; allocates freely.
func (s *Store) promCollect(w *prom.Writer) {
	store := []prom.Label{prom.L("store", s.obsName)}
	m := s.Metrics()
	qs := m.Query

	w.Meta("holistic_rows", "Relation row count.", "gauge")
	w.IntSample("holistic_rows", store, int64(m.Rows))
	w.Meta("holistic_queries_total", "Sequenced query executions.", "counter")
	w.IntSample("holistic_queries_total", store, int64(qs.Queries))

	// Latency histograms: the merged all-operations distribution and the
	// executor's single-attribute select distribution, in nanoseconds.
	writePromHist(w, "holistic_query_latency_ns",
		"Latency of query operations across all terminals, nanoseconds.", store, &m.queryLatency)
	writePromHist(w, "holistic_select_latency_ns",
		"Latency of single-attribute select operations, nanoseconds.", store, &m.selectLatency)

	w.Meta("holistic_op_p99_us", "Per-operation p99 latency, microseconds.", "gauge")
	for _, op := range sortedKeys(qs.Latency) {
		w.Sample("holistic_op_p99_us", append(store, prom.L("op", op)), qs.Latency[op].P99US)
	}
	w.Meta("holistic_representations_total",
		"Executed intermediate selection representations.", "counter")
	for _, rep := range sortedKeys(qs.Representations) {
		w.IntSample("holistic_representations_total", append(store, prom.L("rep", rep)), qs.Representations[rep])
	}
	w.Meta("holistic_strategies_total",
		"Executed physical strategies, keyed subsystem/strategy.", "counter")
	for _, st := range sortedKeys(qs.Strategies) {
		w.IntSample("holistic_strategies_total", append(store, prom.L("strategy", st)), qs.Strategies[st])
	}

	w.Meta("holistic_selects_total", "Single-attribute select operations.", "counter")
	w.IntSample("holistic_selects_total", store, m.Exec.Selects)
	w.Meta("holistic_cracker_builds_total", "Index structures created on first touch.", "counter")
	w.IntSample("holistic_cracker_builds_total", store, m.Exec.CrackerBuilds)
	w.Meta("holistic_merged_updates_total", "Pending updates merged on the query path.", "counter")
	w.IntSample("holistic_merged_updates_total", store, m.Exec.MergedUpdates)
	w.Meta("holistic_key_order_walks_total", "Full key-ordered index walks.", "counter")
	w.IntSample("holistic_key_order_walks_total", store, m.Exec.KeyOrderWalks)

	if m.Daemon != nil {
		promDaemon(w, store, m.Daemon)
	}

	if m.Flight != nil {
		w.Meta("holistic_flight_events_total", "Flight-recorder events recorded.", "counter")
		w.IntSample("holistic_flight_events_total", store, int64(m.Flight.EventsRecorded))
		wd := m.Flight.Watchdog
		w.Meta("holistic_flight_anomalies_total", "Watchdog anomalies detected.", "counter")
		w.IntSample("holistic_flight_anomalies_total", store, wd.Anomalies)
		w.Meta("holistic_flight_dumps_total", "Flight dumps written.", "counter")
		w.IntSample("holistic_flight_dumps_total", store, wd.DumpsWritten)
		w.Meta("holistic_watchdog_baseline_p99_us",
			"Watchdog rolling baseline p99, microseconds.", "gauge")
		w.Sample("holistic_watchdog_baseline_p99_us", store, wd.BaselineP99US)
	}
}

// promDaemon streams the background daemon's convergence state.
func promDaemon(w *prom.Writer, store []prom.Label, conv *holistic.Convergence) {
	w.Meta("holistic_convergence_ratio",
		"Mean per-index refinement progress, 1.0 = whole index space optimal.", "gauge")
	w.Sample("holistic_convergence_ratio", store, conv.Ratio)
	w.Meta("holistic_refinements_total", "Successful background refinement actions.", "counter")
	w.IntSample("holistic_refinements_total", store, conv.Refinements)
	w.Meta("holistic_refine_attempts_total", "Refinement pivot attempts including re-rolls.", "counter")
	w.IntSample("holistic_refine_attempts_total", store, conv.Attempts)
	w.Meta("holistic_busy_rerolls_total", "Latch-contention pivot re-rolls.", "counter")
	w.IntSample("holistic_busy_rerolls_total", store, conv.BusyRerolls)
	w.Meta("holistic_worker_panics_total", "Contained daemon worker panics.", "counter")
	w.IntSample("holistic_worker_panics_total", store, conv.WorkerPanics)
	w.Meta("holistic_daemon_cycles_total", "Daemon tuning cycles run.", "counter")
	w.IntSample("holistic_daemon_cycles_total", store, conv.Totals.Cycles)
	w.Meta("holistic_index_pieces", "Current partition count per index.", "gauge")
	w.Meta("holistic_index_progress",
		"Per-index refinement progress, 0 = untouched, 1 = optimal.", "gauge")
	w.Meta("holistic_refine_invested_ns",
		"Daemon nanoseconds invested refining each index.", "counter")
	for _, ic := range conv.Indexes {
		labels := append(store, prom.L("index", ic.Name))
		w.IntSample("holistic_index_pieces", labels, int64(ic.Pieces))
		w.Sample("holistic_index_progress", labels, ic.Progress)
		w.IntSample("holistic_refine_invested_ns", labels, ic.InvestedNS)
	}
}

// writePromHist renders one cumulative nanosecond histogram in the
// Prometheus bucket convention: only buckets where the cumulative count
// advances are emitted (the log-linear layout has 960; implicit
// repeats add nothing), closed by the mandatory +Inf bucket and the
// _sum/_count pair.
func writePromHist(w *prom.Writer, name, help string, labels []prom.Label, h *obs.HistSnapshot) {
	w.Meta(name, help, "histogram")
	var prev uint64
	h.ForEachBucket(func(upperNs int64, cum uint64) {
		if cum != prev && upperNs != math.MaxInt64 {
			w.Bucket(name, labels, strconv.FormatInt(upperNs, 10), cum)
			prev = cum
		}
	})
	w.Bucket(name, labels, "+Inf", h.Count)
	w.HistogramTail(name, labels, float64(h.Sum), h.Count)
}

// sortedKeys orders a map's keys for a stable exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

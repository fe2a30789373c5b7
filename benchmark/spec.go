package main

import (
	"runtime"
	"slices"
	"time"

	"holistic"
)

// class groups workloads by the operation family of their sessions; each
// class has its own outside-in ladder (ladder_*.go).
type class int

const (
	classRange    class = iota // single-attribute range count/sum
	classAnalytic              // conjunctive, grouped and join queries
	classUpdate                // reads beside durable writes, then restart
)

// workloadDef is the per-session shape of one workload. The shape is fixed;
// a run repeats it for as many sessions as its time budget holds.
type workloadDef struct {
	Name, Why string
	Class     class
	Rows      int // rows per attribute of the main store
	Attrs     int // attributes of the main store
	Ops       int // operations per client per session
	Clients   int // closed-loop clients
	Think     time.Duration
	Mode      holistic.Mode
	Durable   bool
}

// tuningInterval is the holistic daemon's load-measurement window in every
// holistic store the benchmark opens. The library default is the paper's 1 s,
// under which a session of a second or two would never see a tuning cycle;
// 2 ms is what the repo's own figure runs use at reduced scale.
const tuningInterval = 2 * time.Millisecond

// domain is the value domain of every uniform attribute (the paper's 2^30).
const domain = int64(1) << 30

// headRows bounds the rows update-durable draws its Delete/Update victims
// from. Store.Delete and Store.Update resolve the victim by a front-to-back
// scan of the attribute (about 25 ns a row here once overlays exist), so a
// victim drawn uniformly from 2 Mi rows costs ~25 ms and 4000 of them ~100 s
// a session — outside the run-time cap. Victims from the first 16 Ki rows keep
// that scan in the workload (it is what write_p99_us shows) at ~0.2 ms.
const headRows = 16 << 10

func nproc() int { return runtime.NumCPU() }

func workloads() []workloadDef {
	return []workloadDef{
		{
			Name:  "explore-range",
			Why:   "Fig 6a: one client cracks 8 cold columns with random ranges while the daemon races it; cracking does the work, query/groupby/join/durable do none",
			Class: classRange, Rows: 4 << 20, Attrs: 8, Ops: 2000, Clients: 1,
			Mode: holistic.ModeHolistic,
		},
		{
			Name:  "analytic-mix",
			Why:   "Fig 9: 2 ms think time lets the daemon prefill, so time goes to query planning, bitmap/poslist refines, groupby and join; a crack-kernel change predicts no change",
			Class: classAnalytic, Rows: 2 << 20, Attrs: 6, Ops: 1000, Clients: 1,
			Think: 2 * time.Millisecond, Mode: holistic.ModeHolistic,
		},
		{
			Name:  "update-durable",
			Why:   "Fig 16 plus restart: adaptive store, one WAL-logged write per read, checkpoint, crash copy and clean reopen; the daemon is bypassed, so a daemon change predicts no change",
			Class: classUpdate, Rows: 2 << 20, Attrs: 4, Ops: 10000, Clients: 1,
			Mode: holistic.ModeAdaptive, Durable: true,
		},
		{
			Name:  "saturated-clients",
			Why:   "Fig 17 with the paper's precondition failing: nproc clients leave no idle context, so holistic must degrade to adaptive, not below; a greedier daemon shows as a loss here",
			Class: classRange, Rows: 4 << 20, Attrs: 8, Ops: 2000, Clients: nproc(),
			Mode: holistic.ModeHolistic,
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// representative returns the workload whose shape stands for a class when
// another class's run needs that class's layer metrics (see ladder.go).
func representative(c class) workloadDef {
	for _, w := range workloads() {
		if w.Class == c {
			return w
		}
	}
	panic("benchmark: class without a workload")
}

// scaled shrinks the per-session shape: unit tests and the miniature ladders
// use it. The operation mix and everything else stay as they are.
func (w workloadDef) scaled(rowsDiv, opsDiv int) workloadDef {
	w.Rows /= rowsDiv
	w.Ops /= opsDiv
	if w.Rows < 1024 {
		w.Rows = 1024
	}
	if w.Ops < 40 {
		w.Ops = 40
	}
	return w
}

// config is the Store configuration of the workload's main store (and of the
// join partner on analytic-mix).
func (w workloadDef) config(seed int64) holistic.Config {
	return holistic.Config{
		// The zero Mode is ModeScan, not the adaptive mode the Config docs
		// promise, so the mode is always spelled out.
		Mode:           w.Mode,
		Threads:        nproc(),
		TuningInterval: tuningInterval,
		Seed:           seed,
		// Stated flush policy of update-durable: group-commit fsync on every
		// acknowledged write, snapshots only at the explicit Checkpoint.
		WALSync:          holistic.WALSyncGroup,
		SnapshotInterval: -1,
	}
}

// metricDef describes one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. Moves says which end-to-end metric a per-layer metric should move and
// where (written down before measuring, as the choosing-metrics guide asks).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd lists the metrics every workload reports with -trace 0; it must
// agree with BENCHMARK.json (TestSpecMatchesBenchmarkJSON). The bounds are a
// quarter, the widest the driver allows, for every timing: on the reference
// machine (2 shared cores) the same commit's medians move by 3-5 % from run to
// run in quiet minutes and by 10-15 % in noisy ones. What could not even hold
// that — tail and restart latencies, single first touches — is reported
// without a bound instead (see demoted).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "NewStore/OpenStore + AddIntColumn per attribute + Prepare; data generation excluded"},
	{"session_s", "s", "lower", 0.25, "sum of the per-operation latencies of one session, think time excluded (cumulative response time)"},
	{"early_s", "s", "lower", 0.25, "the same sum over each client's first 100 operations (the adaptation cost of Figs 6a/8)"},
	{"query_p50_us", "us", "lower", 0.25, "pooled median latency of range / conjunctive reads"},
	{"qps", "1/s", "higher", 0.25, "operations completed per second of session wall time, think time excluded"},
	{"mem_ratio", "x", "lower", 0.10, "heap in use at session end (after GC, benchmark's own data subtracted) plus the raw columns, per raw column byte"},
}

// demoted metrics are end-to-end in kind but carry no bound: they exist on
// one workload only, are 0 whenever the system is correct, or did not repeat
// within a quarter over ten runs when the benchmark was defined (README.md,
// "Demoted metrics"). Every run prints them; the driver gets them with the
// per-layer metrics of -trace 1.
var demoted = []metricDef{
	{"first_touch_ms", "ms", "lower", 0, "what reaching an attribute for the first time costs, per attribute touched (explore-range; 18 % spread on analytic-mix)"},
	{"query_p99_us", "us", "lower", 0, "pooled p99 latency of range / conjunctive reads (19-28 % spread)"},
	{"recover_s", "s", "lower", 0, "restart after a crash to the first answered query: OpenStore on the crash image (WAL replay); a cold start where the store is in memory (20-30 % spread)"},
	{"reopen_s", "s", "lower", 0, "restart after a clean Close to the first answered query (14-27 % spread)"},
	{"grouped_p50_us", "us", "lower", 0, "pooled median latency of grouped queries (analytic-mix only)"},
	{"join_p50_us", "us", "lower", 0, "pooled median latency of joins (analytic-mix only)"},
	{"write_p50_us", "us", "lower", 0, "pooled median latency of acknowledged writes (update-durable only)"},
	{"write_p99_us", "us", "lower", 0, "pooled p99 latency of acknowledged writes (update-durable only)"},
	{"error_rate", "share", "lower", 0, "errors + wrong answers + acknowledged writes missing after restart, over operations attempted; must be 0"},
}

var perLayer = []metricDef{
	{"column.scan_ns_per_value", "ns", "lower", 0, "column.CountRange over one column; query_p50_us on analytic-mix, none on explore-range"},
	{"column.scan_gbps", "GB/s", "higher", 0, "the same scan as bandwidth"},
	{"column.parallel_scan_gbps", "GB/s", "higher", 0, "ParallelCountRange(…, Threads), the scan baseline of every figure"},
	{"column.conj_ns_per_query", "ns", "lower", 0, "ScanRangeBitmap + FilterBitmap + Count by hand, the index-free floor; query_p50_us on analytic-mix"},
	{"column.filter_bitmap_ns_per_row", "ns", "lower", 0, "FilterBitmap per candidate row; query_p50_us on analytic-mix"},
	{"column.filter_rows_ns_per_row", "ns", "lower", 0, "FilterRows per candidate row; query_p50_us on analytic-mix"},
	{"cracking.first_touch_ms", "ms", "lower", 0, "cracking.New + first SelectRange; first_touch_ms, early_s on explore-range"},
	{"cracking.select_ns_per_query", "ns", "lower", 0, "SelectRange/SelectSum over the session; session_s on explore-range, query_p99_us on saturated-clients, none on analytic-mix"},
	{"cracking.select_rows_ns_per_query", "ns", "lower", 0, "SelectRowsFunc of the driving conjunct; query_p50_us on analytic-mix"},
	{"cracking.pieces_final", "count", "higher", 0, "pieces over all cracker columns at session end"},
	{"cracking.avg_piece_values", "count", "lower", 0, "mean piece size at session end"},
	{"sortidx.build_ns_per_value", "ns", "lower", 0, "full sort of one column"},
	{"sortidx.select_ns_per_query", "ns", "lower", 0, "binary-search select, the converged floor of query_p50_us on explore-range"},
	{"engine.count_self_ns_per_query", "ns", "lower", 0, "AdaptiveExecutor.Count/Sum minus the cracking rung; query_p50_us on explore-range"},
	{"engine.cracker_builds", "count", "lower", 0, "cracker columns built in the untraced session"},
	{"engine.select_p50_us", "us", "lower", 0, "ExecSnapshot select latency p50; query_p50_us on explore-range"},
	{"query.range_self_ns_per_query", "ns", "lower", 0, "query.Runner minus the engine rung on range reads; query_p50_us on explore-range"},
	{"query.conj_self_ns_per_query", "ns", "lower", 0, "query.Runner minus hand-composed engine+column kernels; query_p50_us on analytic-mix"},
	{"query.grouped_self_ns_per_query", "ns", "lower", 0, "the same for grouped queries; grouped_p50_us on analytic-mix"},
	{"query.join_self_ns_per_query", "ns", "lower", 0, "the same for joins; join_p50_us on analytic-mix"},
	{"query.rep_bitmap_share", "share", "higher", 0, "share of selections that ran as bitmaps (QuerySnapshot.Representations)"},
	{"groupby.ns_per_query", "ns", "lower", 0, "GroupBitmap on the materialised selection; grouped_p50_us on analytic-mix"},
	{"groupby.ns_per_input_row", "ns", "lower", 0, "the same per selected row"},
	{"groupby.sort_share", "share", "higher", 0, "grouped queries that ran index-clustered"},
	{"groupby.dense_share", "share", "higher", 0, "grouped queries that ran on dense accumulators"},
	{"join.hash_ns_per_query", "ns", "lower", 0, "join.Hash on the gathered sides; join_p50_us on analytic-mix"},
	{"join.merge_ns_per_query", "ns", "lower", 0, "join.Merge over the key-order walks of both sides"},
	{"join.merge_share", "share", "higher", 0, "joins that ran as merge joins"},
	{"store.range_self_ns_per_query", "ns", "lower", 0, "Store (adaptive) minus the query rung: Store.mu, pending check, recording; query_p50_us everywhere"},
	{"store.conj_self_ns_per_query", "ns", "lower", 0, "the same on conjunctive reads"},
	{"store.obs_overhead_ns_per_query", "ns", "lower", 0, "default Config minus flight/watchdog/timeline disabled"},
	{"store.client_scaling", "x", "higher", 0, "qps with nproc clients over qps with one; qps on saturated-clients"},
	{"holistic.session_delta_s", "s", "lower", 0, "session under ModeHolistic minus the same sequence under ModeAdaptive; negative = idle refinement paid; session_s on explore-range, early_s on analytic-mix, ~0 on saturated-clients"},
	{"holistic.refinements", "count", "higher", 0, "successful background refinements"},
	{"holistic.attempts", "count", "lower", 0, "pivot attempts including re-rolls"},
	{"holistic.useful_ratio", "share", "higher", 0, "refinements over attempts"},
	{"holistic.busy_rerolls", "count", "lower", 0, "latch-contention re-rolls"},
	{"holistic.cycles", "count", "higher", 0, "tuning cycles that ran workers"},
	{"holistic.worker_time_s", "s", "lower", 0, "summed worker time; should be ~0 on saturated-clients"},
	{"holistic.refinements_per_worker_s", "1/s", "higher", 0, "refinements per second of worker time"},
	{"holistic.convergence_ratio", "share", "higher", 0, "mean per-index progress towards L1-sized pieces"},
	{"updates.merge_ns_per_op", "ns", "lower", 0, "Pending.MergeRange on a cracker column per merged operation; query_p99_us on update-durable"},
	{"updates.merged", "count", "higher", 0, "pending operations merged by reads in the untraced session"},
	{"durable.write_delta_us", "us", "lower", 0, "mean write latency through OpenStore minus the in-memory store; write_p50_us on update-durable"},
	{"durable.wal_append_us", "us", "lower", 0, "Log.Append + Commit under group sync"},
	{"durable.wal_bytes_per_write", "B", "lower", 0, "WAL bytes per acknowledged write (repeats exactly)"},
	{"durable.syncs_per_write", "count", "lower", 0, "fsyncs per acknowledged write (repeats exactly)"},
	{"durable.checkpoint_s", "s", "lower", 0, "the midpoint Checkpoint; session_s on update-durable"},
	{"durable.disk_bytes_per_user_byte", "x", "lower", 0, "data directory size at session end per raw column byte"},
	{"durable.replayed_records", "count", "lower", 0, "WAL records replayed on the crash copy; recover_s"},
	{"durable.restored_indexes", "count", "higher", 0, "adaptive indexes restored on clean reopen; reopen_s"},
	{"trace.top_rung_s", "s", "lower", 0, "session 0 replayed with spans recorded"},
	{"trace.overhead_s", "s", "lower", 0, "top rung minus the untraced session 0"},
	{"trace.ladder_gap_s", "s", "lower", 0, "sum of the rungs' self times minus the top rung; 0 when the ladder reconciles"},
}

// traced is what a -trace 1 run reports: the per-layer metrics and the
// demoted ones.
func traced() []metricDef { return append(slices.Clone(perLayer), demoted...) }

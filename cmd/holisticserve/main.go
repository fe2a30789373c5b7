// Command holisticserve runs an instrumented holistic store under a
// continuous synthetic workload and serves its telemetry over HTTP:
//
//	/debug/holistic           JSON snapshot of every registered store's Metrics
//	/debug/holistic/flight    decoded flight-recorder ring + watchdog state
//	/metrics                  Prometheus text exposition
//	/healthz, /readyz         liveness and readiness probes
//	/debug/vars               expvar (includes the "holistic" variable)
//	/debug/pprof/*            the standard profiles
//
// Usage:
//
//	holisticserve -addr :8090                   # serve until SIGINT
//	holisticserve -addr 127.0.0.1:0 -duration 5s -trace traces.jsonl
//	holisticserve -data-dir /var/lib/h -slo-p99 5ms
//	holisticserve -duration 10s -slo-p99 2ms -anomaly-after 4s
//
// The workload mixes multi-predicate counts, sums, grouped aggregates
// and a self-join so every subsystem's telemetry moves: watch the
// daemon's convergence ratio climb and the strategy counters move from
// hash to index-clustered grouping as refinement proceeds. With
// -anomaly-after the workload deliberately degrades at that point in
// the run (full-domain multi-aggregate scans replace the indexed mix),
// driving p99 over the -slo-p99 objective so the watchdog's flight
// dump path can be exercised end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"holistic"
	"holistic/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the server against explicit arguments and output
// streams so tests can drive the full surface in-process. It returns
// after -duration (or on SIGINT/SIGTERM when the duration is 0).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("holisticserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8090", "HTTP listen address (host:0 picks a free port)")
		rows     = fs.Int("rows", 200_000, "rows per attribute of the demo relation")
		threads  = fs.Int("threads", 0, "hardware-context budget (0: all CPUs)")
		interval = fs.Duration("interval", time.Millisecond, "daemon tuning interval")
		duration = fs.Duration("duration", 0, "stop after this long (0: run until SIGINT)")
		pause    = fs.Duration("pause", 2*time.Millisecond, "idle time between workload queries")
		trace    = fs.String("trace", "", "stream per-query JSONL traces to this file (size-capped, rotates to .1)")
		traceMax = fs.Int64("trace-max-bytes", 0, "rotate the -trace file at this size (0: 64 MiB)")
		seed     = fs.Int64("seed", 1, "random seed")
		dataDir  = fs.String("data-dir", "", "persist the store here (WAL + snapshots); reopens on restart")
		snapshot = fs.Duration("snapshot-interval", 0, "how long a write waits for its background snapshot when -data-dir is set (0: library default)")
		sloP99   = fs.Duration("slo-p99", 0, "absolute p99 latency objective; the watchdog flight-dumps when a window breaches it (0: relative rule only)")
		anomaly  = fs.Duration("anomaly-after", 0, "degrade the workload this far into the run (full-domain scans) to force an SLO breach; 0 disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "holisticserve: listen:", err)
		return 1
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "holisticserve: listening on http://%s/debug/holistic\n", ln.Addr())
	go func() { _ = http.Serve(ln, obs.Handler()) }()

	// Readiness flips true only after recovery has replayed, the demo
	// relation is loaded, and a warm-up query has run — until then
	// /readyz answers 503 and a load balancer keeps traffic away.
	var ready atomic.Bool
	obs.Register("holisticserve", obs.Entry{Ready: ready.Load})
	defer obs.Unregister("holisticserve")

	cfg := holistic.Config{
		Mode:             holistic.ModeHolistic,
		Threads:          *threads,
		TuningInterval:   *interval,
		Seed:             *seed,
		SnapshotInterval: *snapshot,
		SLOP99:           *sloP99,
	}
	var store *holistic.Store
	if *dataDir != "" {
		store, err = holistic.OpenStore(*dataDir, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "holisticserve: open:", err)
			return 1
		}
		if rec := store.Metrics().Recovery; rec != nil {
			fmt.Fprintf(stdout, "holisticserve: recovered generation %d (clean=%v, replayed %d WAL records)\n",
				rec.Generation, rec.CleanStart, rec.ReplayedRecords)
		}
		if prior := store.PriorFlightDumps(); len(prior) > 0 {
			fmt.Fprintf(stdout, "holisticserve: %d flight dump(s) from earlier runs, newest %s\n",
				len(prior), prior[len(prior)-1])
		}
	} else {
		store = holistic.NewStore(cfg)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(*seed))
	const domain = 1 << 14
	if len(store.Columns()) == 0 { // fresh store (or no data dir): load the demo relation
		for _, name := range []string{"a", "b", "c", "g"} {
			vals := make([]int64, *rows)
			lim := int64(domain)
			if name == "g" {
				lim = 64 // a group key with a dense-packable domain
			}
			for i := range vals {
				vals[i] = rng.Int63n(lim)
			}
			if err := store.AddIntColumn(name, vals); err != nil {
				fmt.Fprintln(stderr, "holisticserve:", err)
				return 1
			}
		}
	}

	if *trace != "" {
		// The store owns the file: the stream is buffered, size-capped
		// (rotating to *trace+".1") and flushed on Close.
		if err := store.SetTraceJSONLFile(*trace, *traceMax); err != nil {
			fmt.Fprintln(stderr, "holisticserve: trace:", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	// Warm up: one query through every path the probe cares about, then
	// declare the process ready for traffic.
	if _, err := store.Query().Where("a", 0, domain).Count(); err != nil {
		fmt.Fprintln(stderr, "holisticserve: warm-up:", err)
		return 1
	}
	ready.Store(true)

	began := time.Now()
	degraded := false
	queries := 0
	for ; ctx.Err() == nil; queries++ {
		if *anomaly > 0 && !degraded && time.Since(began) >= *anomaly {
			degraded = true
			fmt.Fprintf(stdout, "holisticserve: degrading workload after %v (anomaly injection)\n",
				time.Since(began).Round(time.Millisecond))
		}
		var err error
		if degraded {
			// The injected anomaly: unindexable full-domain scans with a
			// multi-aggregate group-by, run back to back with no pause, so
			// the merged latency window's p99 climbs past the objective.
			_, err = store.Query().Where("a", 0, domain).Where("b", 0, domain).
				GroupBy("g").Aggregate(holistic.Count(), holistic.Sum("a"), holistic.Sum("b"), holistic.Sum("c"))
			if err != nil {
				fmt.Fprintln(stderr, "holisticserve:", err)
				return 1
			}
			continue
		}
		lo := rng.Int63n(domain / 2)
		span := 1 + rng.Int63n(domain/2)
		q := store.Query().Where("a", lo, lo+span).Where("b", 0, domain*3/4)
		switch queries % 8 {
		case 5:
			// A write keeps the WAL moving so restarts have records to
			// replay; reads below still dominate the mix.
			err = store.Insert("c", rng.Int63n(domain))
		case 6:
			_, err = q.GroupBy("g").Aggregate(holistic.Count(), holistic.Sum("c"))
		case 7:
			_, err = q.Sum("c")
		default:
			_, err = q.Count()
		}
		if err != nil {
			fmt.Fprintln(stderr, "holisticserve:", err)
			return 1
		}
		select {
		case <-ctx.Done():
		case <-time.After(*pause):
		}
	}
	m := store.Metrics()
	conv := 0.0
	if m.Daemon != nil {
		conv = m.Daemon.Ratio
	}
	fmt.Fprintf(stdout, "holisticserve: %d queries served, convergence ratio %.3f\n", queries, conv)
	if m.Flight != nil {
		wd := m.Flight.Watchdog
		fmt.Fprintf(stdout, "holisticserve: flight: %d events recorded, %d anomalies (last %s), %d dumps written\n",
			m.Flight.EventsRecorded, wd.Anomalies, wd.LastTrigger, wd.DumpsWritten)
	}
	if m.Recovery != nil && m.Recovery.LastFlightDump != "" {
		fmt.Fprintf(stdout, "holisticserve: last flight dump: %s\n", m.Recovery.LastFlightDump)
	}
	return 0
}

// Command holisticbench regenerates the tables and figures of "Holistic
// Indexing in Main-memory Column-stores" (SIGMOD 2015) at a configurable
// reduced scale.
//
// Usage:
//
//	holisticbench -experiment fig6a            # one figure
//	holisticbench -experiment all              # the whole evaluation
//	holisticbench -list                        # enumerate experiments
//	holisticbench -experiment fig12 -columns 4194304 -queries 1000
//	holisticbench -experiment agg              # aggregate pushdown (Q6-style)
//	holisticbench -experiment join             # holistic vs adaptive join
//	holisticbench -experiment conj -cpuprofile cpu.out -memprofile mem.out
//	holisticbench -experiment conj -baseline ci/baselines/BENCH_conj.json
//
// Scale defaults target a laptop-class machine; DESIGN.md §3 maps them
// to the paper's scale. -baseline turns a run into a regression gate:
// per-label mean latencies are compared against a committed
// BENCH_*.json (produced by an earlier -json run at the same parameters)
// and the process exits 1 when any shared label's mean exceeds the
// baseline by more than -baseline-tolerance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"holistic/internal/bench"
	"holistic/internal/obs"
)

// main delegates to run so deferred profile writers flush on every
// exit path — os.Exit would skip them and truncate the profiles.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against explicit arguments and output
// streams, so tests can drive the CLI surface in-process.
func run(args []string, stdout, stderr io.Writer) int {
	defaults := bench.DefaultParams()
	fs := flag.NewFlagSet("holisticbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment  = fs.String("experiment", "all", "experiment name (see -list) or 'all'")
		list        = fs.Bool("list", false, "list available experiments and exit")
		columns     = fs.Int("columns", defaults.ColumnSize, "values per attribute")
		queries     = fs.Int("queries", defaults.Queries, "queries per workload")
		attrs       = fs.Int("attrs", defaults.Attrs, "number of attributes")
		domain      = fs.Int64("domain", defaults.Domain, "attribute value domain")
		threads     = fs.Int("threads", defaults.Threads, "hardware-context budget")
		interval    = fs.Duration("interval", defaults.Interval, "daemon tuning interval")
		refinements = fs.Int("x", defaults.Refinements, "refinements per holistic worker")
		l1          = fs.Int("l1", defaults.L1Values, "optimal piece size in values (|L1|)")
		tpchOrders  = fs.Int("tpch-orders", defaults.TPCHOrders, "ORDERS cardinality for fig14")
		seed        = fs.Int64("seed", defaults.Seed, "random seed")
		dataDir     = fs.String("data-dir", "", "directory for durability experiments (recover); temp dir when empty")
		jsonPath    = fs.String("json", "", "also write the results as a JSON array to this file")
		baseline    = fs.String("baseline", "", "compare per-label mean latencies against this BENCH_*.json and exit 1 on regression")
		baselineTol = fs.Float64("baseline-tolerance", 0.5, "relative mean-latency slack before a -baseline comparison counts as a regression")
		baselineMin = fs.Float64("baseline-floor-us", 50, "ignore -baseline labels whose means sit below this many µs (noise floor)")
		metricsAddr = fs.String("metrics-addr", "", "serve /debug/holistic (+/timeline), /metrics, /debug/vars and pprof on this address for the run's duration")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "holisticbench: cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "holisticbench: cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "holisticbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "holisticbench: memprofile:", err)
			}
		}()
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "holisticbench: metrics-addr:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "metrics: http://%s/debug/holistic\n", ln.Addr())
		go func() { _ = http.Serve(ln, obs.Handler()) }()
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.Name, e.Title)
		}
		return 0
	}

	p := bench.Params{
		ColumnSize:  *columns,
		Queries:     *queries,
		Attrs:       *attrs,
		Domain:      *domain,
		Threads:     *threads,
		Interval:    *interval,
		Refinements: *refinements,
		L1Values:    *l1,
		TPCHOrders:  *tpchOrders,
		Seed:        *seed,
		DataDir:     *dataDir,
	}

	var names []string
	if *experiment == "all" {
		for _, e := range bench.Experiments() {
			names = append(names, e.Name)
		}
	} else {
		names = []string{*experiment}
	}

	start := time.Now()
	var results []*bench.Result
	for _, name := range names {
		res, err := bench.Run(name, p)
		if err != nil {
			fmt.Fprintln(stderr, "holisticbench:", err)
			return 1
		}
		res.Fprint(stdout)
		results = append(results, res)
	}
	if len(names) > 1 {
		fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "holisticbench: write json:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *baseline != "" {
		regressions, err := compareBaseline(stdout, *baseline, results, *baselineTol, *baselineMin)
		if err != nil {
			fmt.Fprintln(stderr, "holisticbench: baseline:", err)
			return 1
		}
		if regressions > 0 {
			fmt.Fprintf(stderr, "holisticbench: %d latency regression(s) against %s\n", regressions, *baseline)
			return 1
		}
	}
	return 0
}

// compareBaseline checks every latency label the current run and the
// committed baseline share: a label regresses when its mean exceeds
// the baseline mean by more than the relative tolerance AND both sit
// above the noise floor (sub-floor cells flap with scheduler jitter on
// shared CI runners, so they gate nothing). Labels present on only one
// side are reported but never fail the run — experiments may gain or
// lose cells across commits. Returns the regression count.
func compareBaseline(stdout io.Writer, path string, results []*bench.Result, tol, floorUS float64) (int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base []bench.Result
	if err := json.Unmarshal(buf, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	baseByName := make(map[string]bench.Result, len(base))
	for _, b := range base {
		baseByName[b.Name] = b
	}
	regressions := 0
	for _, res := range results {
		b, ok := baseByName[res.Name]
		if !ok {
			fmt.Fprintf(stdout, "baseline: %s not in %s, skipping\n", res.Name, path)
			continue
		}
		labels := make([]string, 0, len(res.Percentiles))
		for l := range res.Percentiles {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, label := range labels {
			cur := res.Percentiles[label]
			ref, ok := b.Percentiles[label]
			if !ok {
				fmt.Fprintf(stdout, "baseline: %s/%s has no baseline cell, skipping\n", res.Name, label)
				continue
			}
			if cur.MeanUS < floorUS || ref.MeanUS < floorUS {
				fmt.Fprintf(stdout, "baseline: %s/%s mean %.1fµs vs %.1fµs (below %.0fµs floor, not gated)\n",
					res.Name, label, cur.MeanUS, ref.MeanUS, floorUS)
				continue
			}
			ratio := cur.MeanUS / ref.MeanUS
			verdict := "ok"
			if ratio > 1+tol {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(stdout, "baseline: %s/%s mean %.1fµs vs %.1fµs (%+.0f%%, tolerance %.0f%%): %s\n",
				res.Name, label, cur.MeanUS, ref.MeanUS, (ratio-1)*100, tol*100, verdict)
		}
	}
	return regressions, nil
}

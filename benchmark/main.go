// Command benchmark is the repository's one repeatable benchmark: four
// exploration workloads driven through the public holistic.Store API with
// every answer checked, session/latency/restart metrics with fixed regression
// bounds, and — with -trace 1 — an outside-in ladder that times the same
// queries at each layer they cross. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hardware is the line every report carries, so a number is never read
// without the machine that produced it.
type hardware struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHardware() hardware {
	h := hardware{Nproc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metricJSON and resultJSON are the last line of standard output, the
// driver's contract.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// reportJSON is what -out/report-<workload>.json holds: the result with its
// sample counts, bounds and the hardware line.
type reportJSON struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Sessions int                `json:"sessions,omitempty"`
	Hardware hardware           `json:"hardware"`
	Result   resultJSON         `json:"result"`
	Samples  map[string]int     `json:"samples"`
	Bounds   map[string]float64 `json:"bounds,omitempty"`
	Notes    map[string]string  `json:"notes,omitempty"`
	// About says what each metric measures and which end-to-end metric it
	// should move, on which workload.
	About map[string]string `json:"about"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed      = flag.Int64("seed", 1, "seed of the generated data and query sequences")
		secs      = flag.Float64("seconds", 15, "how long one workload measures; sessions of fixed shape repeat until it is spent")
		trace     = flag.Int("trace", 0, "1: climb the layer ladder and report the per-layer metrics instead")
		selfcheck = flag.Bool("selfcheck", false, "run each workload twice with the same seed and compare the end-to-end metrics with their bounds")
		outDir    = flag.String("out", "out", "directory for trace.jsonl, reports and scratch data directories")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var todo []workloadDef
	if *workload == "" {
		todo = workloads()
	} else if w, ok := workloadByName(*workload); ok {
		todo = []workloadDef{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	hw := readHardware()
	fmt.Printf("hardware: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", hw.Nproc, hw.GOMAXPROCS, hw.GoVersion, hw.CPUModel)

	if *selfcheck {
		if !selfCheck(todo, *seed, *secs, *outDir) {
			os.Exit(1)
		}
		return
	}
	var tr *tracer
	if *trace != 0 {
		tr = &tracer{}
	}
	ok := true
	for i, w := range todo {
		fmt.Printf("workload %s seed %d: %s\n", w.Name, *seed, w.Why)
		var res *runResult
		var err error
		if tr != nil {
			res, err = runTraced(w, miniature, *seed, *outDir, tr)
		} else {
			res, err = runEndToEnd(newEnv(w, *seed, *outDir), *secs)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		defs := endToEnd
		if tr != nil {
			defs = traced()
		}
		if tr != nil && i == len(todo)-1 {
			// Before the result: the JSON object stays the last line.
			path := filepath.Join(*outDir, "trace.jsonl")
			if err := tr.write(path); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: %d spans in %s\n", len(tr.spans), path)
		}
		printResult(res, defs, tr == nil)
		if err := writeReport(*outDir, res, defs, *seed, tr != nil, hw); err != nil {
			fatal(err)
		}
		ok = ok && res.correct()
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: wrong answers or failed operations; see error_rate above")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult prints every metric by name with unit, sample count and bound
// — after an end-to-end run the demoted metrics too, measured all the same —
// then the contract's JSON object as the last line.
func printResult(res *runResult, defs []metricDef, alsoDemoted bool) {
	for _, def := range defs {
		r := res.metrics[def.Name]
		bound := ""
		if def.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*def.Bound)
		}
		note := ""
		if r.note != "" {
			note = "  (" + r.note + ")"
		}
		fmt.Printf("  %-36s %16.6f %-6s n=%-8d %s better%s%s\n", def.Name, r.value, def.Unit, r.n, def.Better, bound, note)
	}
	if alsoDemoted {
		for _, def := range demoted {
			if r, ok := res.metrics[def.Name]; ok {
				fmt.Printf("  %-36s %16.6f %-6s n=%-8d %s better  no bound\n", def.Name, r.value, def.Unit, r.n, def.Better)
			}
		}
	}
	for _, note := range res.notes {
		fmt.Printf("  %s\n", note)
	}
	if res.firstErr != nil {
		fmt.Printf("  first error: %v\n", res.firstErr)
	}
	line, err := json.Marshal(toResultJSON(res, defs))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func toResultJSON(res *runResult, defs []metricDef) resultJSON {
	out := resultJSON{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricJSON)}
	for _, def := range defs {
		out.Metrics[def.Name] = metricJSON{Value: res.metrics[def.Name].value, Unit: def.Unit}
	}
	return out
}

func writeReport(outDir string, res *runResult, defs []metricDef, seed int64, traced bool, hw hardware) error {
	rep := reportJSON{
		Workload: res.workload, Seed: seed, Trace: traced, Sessions: res.sessions, Hardware: hw,
		Result: toResultJSON(res, defs), Samples: make(map[string]int),
		Bounds: make(map[string]float64), Notes: make(map[string]string), About: make(map[string]string),
	}
	for _, def := range defs {
		r := res.metrics[def.Name]
		rep.Samples[def.Name] = r.n
		rep.About[def.Name] = def.Moves
		if def.Bound > 0 {
			rep.Bounds[def.Name] = def.Bound
		}
		if r.note != "" {
			rep.Notes[def.Name] = r.note
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("report-%s-%s.json", res.workload, kind)), append(data, '\n'), 0o644)
}

// selfCheck runs each workload twice with the same seed and holds every
// end-to-end metric to its own bound. It reports whether all passed.
func selfCheck(todo []workloadDef, seed int64, secs float64, outDir string) bool {
	pass := true
	for _, w := range todo {
		var runs [2]*runResult
		for i := range runs {
			res, err := runEndToEnd(newEnv(w, seed, outDir), secs)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			runs[i] = res
		}
		fmt.Printf("selfcheck %s seed %d (sessions %d and %d)\n", w.Name, seed, runs[0].sessions, runs[1].sessions)
		for _, def := range endToEnd {
			a, b := runs[0].metrics[def.Name].value, runs[1].metrics[def.Name].value
			// The gap is the second run's worsening over the first, the
			// direction the bound is about; an improvement passes.
			gap := (b - a) / a
			if def.Better == "higher" {
				gap = (a - b) / a
			}
			verdict := "PASS"
			if gap > def.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Printf("  %-16s %14.6f %14.6f %-5s worse by %+7.2f%%  bound %4.0f%%  %s\n", def.Name, a, b, def.Unit, 100*gap, 100*def.Bound, verdict)
		}
		for i, r := range runs {
			if !r.correct() {
				fmt.Printf("  run %d: %d of %d operations failed  FAIL\n", i+1, r.failed, r.attempted)
				pass = false
			}
		}
	}
	return pass
}

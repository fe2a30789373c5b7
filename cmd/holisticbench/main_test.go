package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holistic/internal/bench"
)

// TestListEnumeratesEveryExperiment drives `holisticbench -list` and
// asserts every registered experiment — including the groupby one —
// appears in the listing.
func TestListEnumeratesEveryExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	listing := out.String()
	exps := bench.Experiments()
	if len(exps) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, e := range exps {
		if !strings.Contains(listing, e.Name) {
			t.Errorf("experiment %q missing from -list output", e.Name)
		}
	}
	for _, name := range []string{"groupby", "join", "selvec", "fig6a"} {
		if !strings.Contains(listing, name) {
			t.Errorf("expected experiment %q in -list output", name)
		}
	}
	if lines := strings.Count(listing, "\n"); lines != len(exps) {
		t.Errorf("-list printed %d lines for %d experiments", lines, len(exps))
	}
}

// TestEveryListedExperimentRunsAtTinyScale runs each experiment the
// listing advertises through the CLI at a tiny scale: whatever -list
// names must actually be runnable.
func TestEveryListedExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment CLI suite in -short mode")
	}
	for _, e := range bench.Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := []string{
				"-experiment", e.Name,
				"-columns", "8192", "-queries", "40", "-attrs", "3",
				"-domain", "1048576", "-interval", "1ms", "-x", "4",
				"-l1", "512", "-tpch-orders", "500",
			}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			if !strings.Contains(out.String(), e.Name) {
				t.Errorf("output does not mention %q:\n%s", e.Name, out.String())
			}
		})
	}
}

// TestJSONArtifact covers the -json flag the CI benchmark steps rely
// on: the file must hold the result array with headers and rows.
func TestJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errOut bytes.Buffer
	args := []string{
		"-experiment", "groupby", "-json", path,
		"-columns", "8192", "-queries", "40", "-attrs", "2",
		"-interval", "1ms", "-x", "4", "-l1", "512",
	}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []bench.Result
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "groupby" || len(results[0].Rows) == 0 {
		t.Fatalf("unexpected JSON artifact: %+v", results)
	}
}

// TestBaselineGate covers the -baseline regression gate: a run compared
// against its own artifact passes, and one compared against a doctored
// baseline with impossibly fast means exits 1.
func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_join.json")
	args := []string{
		"-experiment", "join",
		"-columns", "8192", "-queries", "40", "-attrs", "3",
		"-domain", "1048576", "-interval", "1ms", "-x", "4", "-l1", "512",
	}

	var out, errOut bytes.Buffer
	if code := run(append(args, "-json", path), &out, &errOut); code != 0 {
		t.Fatalf("baseline generation exited %d: %s", code, errOut.String())
	}

	// Self-comparison with generous slack must pass.
	out.Reset()
	errOut.Reset()
	if code := run(append(args, "-baseline", path, "-baseline-tolerance", "10"), &out, &errOut); code != 0 {
		t.Fatalf("self-comparison exited %d: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "baseline:") {
		t.Fatalf("no baseline comparison lines:\n%s", out.String())
	}

	// Doctor the baseline so every mean is impossibly fast; with the
	// noise floor off, every gated label must regress.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []bench.Result
	if err := json.Unmarshal(buf, &results); err != nil {
		t.Fatal(err)
	}
	gated := 0
	for i := range results {
		for label, p := range results[i].Percentiles {
			p.MeanUS /= 1e6
			results[i].Percentiles[label] = p
			gated++
		}
	}
	if gated == 0 {
		t.Fatal("join artifact carries no percentile labels to gate on")
	}
	if buf, err = json.Marshal(results); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run(append(args, "-baseline", path, "-baseline-floor-us", "0"), &out, &errOut); code != 1 {
		t.Fatalf("doctored baseline exited %d, want 1:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION verdict against the doctored baseline:\n%s", out.String())
	}

	// A missing baseline file is a hard error, not a silent pass.
	if code := run(append(args, "-baseline", filepath.Join(dir, "nope.json")), &out, &errOut); code != 1 {
		t.Fatalf("missing baseline exited %d, want 1", code)
	}
}

// TestUnknownFlagAndExperiment covers the failure exits.
func TestUnknownFlagAndExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
	if code := run([]string{"-experiment", "nope", "-columns", "1024", "-queries", "8"}, &out, &errOut); code != 1 {
		t.Errorf("unknown experiment exited %d, want 1", code)
	}
}

// TestHelpExitsZero preserves the conventional success exit for -h.
func TestHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-h"}, &out, &errOut); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-experiment") {
		t.Error("-h did not print usage")
	}
}

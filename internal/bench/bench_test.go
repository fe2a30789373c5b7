package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyParams shrinks every knob so the full experiment suite smoke-tests
// in seconds.
func tinyParams() Params {
	p := DefaultParams()
	p.ColumnSize = 20_000
	p.Queries = 60
	p.Attrs = 3
	p.Domain = 1 << 20
	p.Interval = time.Millisecond
	p.Refinements = 4
	p.L1Values = 512
	p.TPCHOrders = 800
	return p
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"ablation-pivot", "ablation-latch", "ablation-l1", "selvec",
		"groupby", "join", "recover",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(have), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tinyParams()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// TestMicroFiguresWithoutQueries: the figures that time the micro-session
// run with an empty query list; offline indexing's sort has no first query
// to be charged to.
func TestMicroFiguresWithoutQueries(t *testing.T) {
	p := tinyParams()
	p.Queries = 0
	for _, name := range []string{"fig6a", "fig6b", "fig6c", "fig7", "fig9", "fig11", "ablation-l1"} {
		if _, err := Run(name, p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFig6dLabelsAreCycleNumbers: each Fig 6d row is labelled with the
// daemon's own cycle number, read off the flight ring's EvCycle event, so
// at a scale where the ring holds every cycle the labels start at 1 and
// increase.
func TestFig6dLabelsAreCycleNumbers(t *testing.T) {
	res, err := Run("fig6d", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no activations")
	}
	prev := 0
	for i, row := range res.Rows {
		n, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatalf("row %d label %q: %v", i, row[0], err)
		}
		if (i == 0 && n != 1) || n <= prev {
			t.Fatalf("row %d labelled %d after %d; want labels from 1, increasing", i, n, prev)
		}
		prev = n
	}
}

// TestAllExperimentsSmoke executes every registered experiment at tiny
// scale and sanity-checks the emitted tables.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke suite in -short mode")
	}
	p := tinyParams()
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			res, err := Run(e.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Headers) == 0 {
				t.Fatal("no headers")
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Headers) {
					t.Fatalf("row %d has %d cells, headers %d", i, len(row), len(res.Headers))
				}
			}
			var buf bytes.Buffer
			res.Fprint(&buf)
			out := buf.String()
			if !strings.Contains(out, e.Name) {
				t.Error("printed output missing experiment name")
			}
			if testing.Verbose() {
				t.Log("\n" + out)
			}
		})
	}
}

func TestCumulative(t *testing.T) {
	times := []time.Duration{1, 2, 3, 4, 5}
	got := cumulative(times, []int{1, 3, 5})
	want := []time.Duration{1, 6, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", got, want)
		}
	}
	// Checkpoints beyond the series clamp to the total.
	got = cumulative(times, []int{2, 10})
	if got[0] != 3 || got[1] != 15 {
		t.Fatalf("clamped cumulative = %v", got)
	}
}

func TestBucketize(t *testing.T) {
	times := make([]time.Duration, 1000)
	for i := range times {
		times[i] = time.Duration(1)
	}
	labels, sums := bucketize(times)
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
	wantSizes := []time.Duration{1, 9, 90, 900}
	for i, w := range wantSizes {
		if sums[i] != w {
			t.Fatalf("bucket %d sum = %d, want %d", i, sums[i], w)
		}
	}
	if labels[0] != "q1-1" || labels[3] != "q101-1000" {
		t.Errorf("labels = %v", labels)
	}
}

func TestCheckpointsFor(t *testing.T) {
	got := checkpointsFor(1000)
	want := []int{1, 10, 100, 1000}
	if len(got) != len(want) {
		t.Fatalf("checkpoints = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints = %v, want %v", got, want)
		}
	}
	if got := checkpointsFor(60); got[len(got)-1] != 60 {
		t.Fatalf("checkpointsFor(60) = %v", got)
	}
}

func TestDistributions(t *testing.T) {
	ds := distributions(16)
	if len(ds) < 3 {
		t.Fatalf("only %d distributions for 16 threads", len(ds))
	}
	if ds[0].label != "u16" || ds[0].workers != 0 {
		t.Errorf("first distribution = %+v, want pure user", ds[0])
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if seen[d.label] {
			t.Errorf("duplicate distribution %s", d.label)
		}
		seen[d.label] = true
		if d.user < 1 {
			t.Errorf("%s: user threads < 1", d.label)
		}
		if d.workers > 0 && d.threadsPer < 1 {
			t.Errorf("%s: workers without threads", d.label)
		}
	}
	// Tiny budgets still yield at least the pure-user config.
	if ds2 := distributions(1); len(ds2) < 1 || ds2[0].user != 1 {
		t.Errorf("distributions(1) = %+v", ds2)
	}
}

func TestResultFprintAlignment(t *testing.T) {
	r := &Result{
		Name:    "x",
		Title:   "t",
		Headers: []string{"a", "long-header"},
	}
	r.AddRow("1", "2")
	r.AddNote("note %d", 7)
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "note 7") {
		t.Errorf("Fprint output:\n%s", out)
	}
}

func TestMsAndSecs(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.5" {
		t.Errorf("ms = %s", ms(1500*time.Microsecond))
	}
	if secs(2500*time.Millisecond) != "2.500" {
		t.Errorf("secs = %s", secs(2500*time.Millisecond))
	}
}

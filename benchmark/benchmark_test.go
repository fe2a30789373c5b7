package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// tiny shrinks a workload to unit-test size.
func tiny(w workloadDef) workloadDef {
	w = w.scaled(1<<20, 1<<20) // clamps to 1024 rows, 40 operations
	w.Ops = 200
	w.Think = 0
	return w
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads() {
		w = tiny(w)
		d1, d2, other := generate(w, 7), generate(w, 7), generate(w, 8)
		if !reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: same seed, different data", w.Name)
		}
		if reflect.DeepEqual(d1.cols, other.cols) {
			t.Errorf("%s: different seeds, same data", w.Name)
		}
		if !reflect.DeepEqual(genOps(w, d1, 7), genOps(w, d2, 7)) {
			t.Errorf("%s: same seed, different operations", w.Name)
		}
		if reflect.DeepEqual(genOps(w, d1, 7), genOps(w, d1, 8)) {
			t.Errorf("%s: different seeds, same operations", w.Name)
		}
	}
}

func TestOperationMix(t *testing.T) {
	w, _ := workloadByName("update-durable")
	w = tiny(w)
	w.Ops = 2000
	ops := genOps(w, generate(w, 3), 3)
	var n [numKinds]int
	for i := range ops {
		n[ops[i].kind]++
	}
	writes := n[kInsert] + n[kDelete] + n[kUpdate]
	if n[kCount] != 1000 || writes != 1000 || n[kCheckpoint] != 1 {
		t.Fatalf("reads %d, writes %d, checkpoints %d; want 1000, 1000, 1", n[kCount], writes, n[kCheckpoint])
	}
	if n[kDelete] < 150 || n[kUpdate] < 150 || n[kInsert] < 500 {
		t.Errorf("write mix insert/delete/update = %d/%d/%d, want about 600/200/200", n[kInsert], n[kDelete], n[kUpdate])
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{2000, 99, 99},    // 20 samples beyond p99
		{1000, 99, 99},    // exactly 10
		{999, 99, 90},     // 9.99: step down
		{100, 99, 90},     // exactly 10 beyond p90
		{99, 99, 50},      // not even p90
		{1 << 20, 99, 99}, // never above what was asked for
		{1 << 20, 50, 50}, // a median stays a median
		{5, 99, 50},       // tiny samples report the median
		{100000, 99.9, 99.9},
	} {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if got := percentile(sorted, 50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := percentile(sorted, 99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
}

func TestLadderSelfTimesSumToTopRung(t *testing.T) {
	L := &ladderOut{res: &runResult{metrics: map[string]reported{}}}
	rows := []rungRow{
		{"holistic", "", 900 * time.Millisecond},
		{"store", "", 1300 * time.Millisecond}, // a negative self time above it
		{"query", "", 1200 * time.Millisecond},
		{"engine", "", 1250 * time.Millisecond}, // and a negative one here
		{"cracking", "", 1100 * time.Millisecond},
	}
	if gap := L.printLadder("test", time.Second, rows); gap != 0 {
		t.Fatalf("self times miss the top rung by %v", gap)
	}
}

// TestOracleCatchesWrongAnswer replays a tiny session of every workload
// against the real Store, expects no failure, then flips one answer.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	for _, w := range workloads() {
		w = tiny(w)
		e := newEnv(w, 11, t.TempDir())
		s, err := e.runSession(0, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if s.failed != 0 || s.attempted < w.Ops {
			t.Fatalf("%s: %d of %d operations failed (%v)", w.Name, s.failed, s.attempted, s.firstErr)
		}
		if s.setup <= 0 || s.memRatio <= 0 || s.coldStart() <= s.setup {
			t.Errorf("%s: a session metric is not positive: %+v", w.Name, s)
		}
		if w.Durable && (s.recover <= 0 || s.reopen <= 0 || s.replayed == 0 || s.restored == 0) {
			t.Errorf("%s: restart not measured: %+v", w.Name, s)
		}
		seq, tm := s.rep.streams[0], s.rep.t[0]
		flipped := false
		for i := range seq {
			// Analytic answers are only sampled, so flip one the sample
			// covers: every read of the first ten.
			if c := seq[i].kind.class(); c == cWrite || c == cAdmin {
				continue
			}
			tm.ans[i]++
			if e.o.verify(seq, tm, e.seed) > 0 {
				flipped = true
			}
			tm.ans[i]--
			if flipped || i > 100 {
				break
			}
		}
		if !flipped {
			t.Errorf("%s: a wrong answer went unnoticed", w.Name)
		}
		if got := e.o.verify(seq, tm, e.seed); got != 0 {
			t.Errorf("%s: %d failures after restoring the answer", w.Name, got)
		}
	}
}

func TestShadowTracksWrites(t *testing.T) {
	w, _ := workloadByName("update-durable")
	w = tiny(w)
	e := newEnv(w, 5, t.TempDir())
	sh := newShadow(e.o)
	v := e.d.cols[0][3]
	before := sh.rangeCount(0, v, v+1)
	sh.apply(&op{kind: kDelete, attr: 0, v: v})
	sh.apply(&op{kind: kInsert, attr: 0, v: domain + 5})
	sh.apply(&op{kind: kUpdate, attr: 0, v: e.d.cols[0][4], v2: domain + 5})
	if got := sh.rangeCount(0, v, v+1); got != before-1 {
		t.Errorf("after delete: %d, want %d", got, before-1)
	}
	want := sh.expected()
	if want[[2]int64{0, domain + 5}] != 2 {
		t.Errorf("inserted value expected %d times, want 2", want[[2]int64{0, domain + 5}])
	}
}

func TestEndToEndRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		res, err := runEndToEnd(newEnv(tiny(w), 2, t.TempDir()), 0.05)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed (%v)", w.Name, res.failed, res.attempted, res.firstErr)
		}
		for _, def := range endToEnd {
			if r, ok := res.metrics[def.Name]; !ok || r.value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, def.Name, r.value)
			}
		}
	}
}

func TestTracedRunClimbsEveryLadder(t *testing.T) {
	w, _ := workloadByName("analytic-mix")
	tr := &tracer{}
	res, err := runTraced(tiny(w), tiny, 4, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("%d of %d failed (%v)", res.failed, res.attempted, res.firstErr)
	}
	if gap := res.metrics["trace.ladder_gap_s"].value; gap != 0 {
		t.Errorf("ladder gap %v, want 0", gap)
	}
	byID := make(map[int]span)
	for _, s := range tr.spans {
		if s.Layer != "" {
			byID[s.ID] = s
		}
	}
	linked := 0
	for _, s := range byID {
		if s.Parent < 0 || s.QueryID < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d names a missing parent %d", s.ID, s.Parent)
		}
		if p.QueryID >= 0 && (p.QueryID != s.QueryID || p.Op != s.Op || p.Workload != s.Workload || p.Layer == s.Layer) {
			t.Fatalf("span %+v has parent %+v", s, p)
		}
		linked++
	}
	if linked == 0 {
		t.Error("no span has a parent")
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the metric tables in spec.go and the
// driver's BENCHMARK.json from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q vs %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(traced()) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer", len(file.EndToEnd), len(endToEnd), len(file.PerLayer), len(traced()))
	}
	for i, def := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end[%d]: %+v vs %+v", i, got, def)
		}
	}
	for i, def := range traced() {
		got := file.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer[%d]: %+v vs %+v", i, got, def)
		}
	}
}

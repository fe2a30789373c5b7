package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/obs/flight"
)

// lockedBuffer lets the test read stdout while run is still writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`http://([^/\s]+)/debug/holistic`)

// TestServeSmoke boots the server on an ephemeral port with a short
// workload, scrapes the telemetry endpoints mid-run, and checks the
// trace stream: the end-to-end path CI exercises.
func TestServeSmoke(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout lockedBuffer
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-rows", "20000",
			"-duration", "1500ms",
			"-pause", "1ms",
			"-trace", tracePath,
		}, &stdout, &stderr)
	}()

	// Wait for the listen line.
	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		if m := addrRE.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("no listen address announced; stderr: %s", stderr.String())
	}
	time.Sleep(300 * time.Millisecond) // let some workload through

	body := get(t, "http://"+addr+"/debug/holistic")
	var snap []struct {
		Name    string          `json:"name"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /debug/holistic payload: %v\n%s", err, body)
	}
	if len(snap) == 0 {
		t.Fatal("no metrics sources registered")
	}
	for _, series := range []string{`"latency"`, `"p99_us"`, `"convergence_ratio"`, `"cycle_totals"`, `"representations"`} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("endpoint missing required series %s", series)
		}
	}

	if vars := get(t, "http://"+addr+"/debug/vars"); !bytes.Contains(vars, []byte(`"holistic"`)) {
		t.Error("/debug/vars missing the holistic expvar")
	}
	if prof := get(t, "http://"+addr+"/debug/pprof/cmdline"); len(prof) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}

	if code := <-done; code != 0 {
		t.Fatalf("run exited %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "queries served") {
		t.Errorf("missing summary line: %s", stdout.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("trace stream too short: %d lines", len(lines))
	}
	for i, ln := range lines {
		var tr struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(ln, &tr); err != nil {
			t.Fatalf("trace line %d invalid: %v", i+1, err)
		}
		if tr.Kind == "" {
			t.Fatalf("trace line %d missing kind", i+1)
		}
	}
}

// TestServeRestartRecovers runs two short server lives against the same
// -data-dir: the first persists the store, the second must reopen it —
// skipping the demo load — and report what recovery found.
func TestServeRestartRecovers(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-rows", "5000",
		"-duration", "700ms",
		"-pause", "1ms",
		"-data-dir", dataDir,
		"-snapshot-interval", "100ms",
	}

	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d; stderr: %s", code, err1.String())
	}
	if !strings.Contains(out1.String(), "recovered generation") {
		t.Fatalf("first run missing recovery line: %s", out1.String())
	}

	var out2, err2 bytes.Buffer
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("second run exited %d; stderr: %s", code, err2.String())
	}
	reopen := regexp.MustCompile(`recovered generation (\d+)`).FindStringSubmatch(out2.String())
	if reopen == nil {
		t.Fatalf("second run missing recovery line: %s", out2.String())
	}
	if reopen[1] == "0" {
		t.Errorf("second run reopened at generation 0 — first run's snapshot was not found: %s", out2.String())
	}
	if !strings.Contains(out2.String(), "queries served") {
		t.Errorf("second run missing summary line: %s", out2.String())
	}
}

// TestServeAnomalyWritesFlightDump is the CI anomaly smoke: a server
// with a 1ns p99 objective and an injected workload degradation must
// write a decodable flight dump into its data directory, and its
// health endpoints must answer while the anomaly storm runs.
func TestServeAnomalyWritesFlightDump(t *testing.T) {
	dataDir := t.TempDir()
	var stdout lockedBuffer
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-rows", "20000",
			"-duration", "2s",
			"-pause", "1ms",
			"-data-dir", dataDir,
			"-slo-p99", "1ns",
			"-anomaly-after", "300ms",
		}, &stdout, &stderr)
	}()

	var addr string
	for i := 0; i < 100 && addr == ""; i++ {
		if m := addrRE.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if addr == "" {
		t.Fatalf("no listen address announced; stderr: %s", stderr.String())
	}

	if body := get(t, "http://"+addr+"/healthz"); !bytes.Contains(body, []byte("ok")) {
		t.Errorf("/healthz = %q", body)
	}
	// Readiness flips once the warm-up query ran; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never turned ready (last %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body := get(t, "http://"+addr+"/debug/holistic/flight"); !bytes.Contains(body, []byte(`"watchdog"`)) {
		t.Errorf("/debug/holistic/flight missing watchdog state: %s", body)
	}

	if code := <-done; code != 0 {
		t.Fatalf("run exited %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "degrading workload") {
		t.Errorf("missing anomaly injection line: %s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "dumps written") {
		t.Errorf("missing flight summary line: %s", stdout.String())
	}

	names, err := filepath.Glob(filepath.Join(dataDir, "flight-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no flight dump in %s; stdout: %s", dataDir, stdout.String())
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := flight.Decode(data)
		if err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
		if len(d.Events) == 0 {
			t.Errorf("%s decodes to zero events", name)
		}
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

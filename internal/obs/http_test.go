package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// metricsOf evaluates the registry's metrics snapshot and returns the
// payload registered under name.
func metricsOf(name string) (any, bool) {
	for _, n := range snapshot("metrics") {
		if n.name == name {
			return n.payload, true
		}
	}
	return nil, false
}

func TestRegistry(t *testing.T) {
	Register("test-src", Entry{Metrics: func() any { return map[string]int{"x": 1} }})
	defer Unregister("test-src")
	if _, ok := metricsOf("test-src"); !ok {
		t.Fatal("registered entry missing from snapshot")
	}
	Register("test-src", Entry{Metrics: func() any { return map[string]int{"x": 2} }})
	if v, _ := metricsOf("test-src"); v.(map[string]int)["x"] != 2 {
		t.Fatalf("re-registration did not replace entry: %v", v)
	}
	// One entry serves only the endpoints it has functions for.
	for _, n := range snapshot("flight") {
		if n.name == "test-src" {
			t.Fatal("entry without a Flight function listed on the flight endpoint")
		}
	}
	Unregister("test-src")
	if _, ok := metricsOf("test-src"); ok {
		t.Fatal("unregistered entry still present")
	}
	Unregister("never-registered") // must not panic
}

func TestHandlerHolisticEndpoint(t *testing.T) {
	m := new(QueryMetrics)
	m.RecordOp(OpCount, 1500)
	m.RecordRep(RepBitmap)
	m.NextSeq()
	m.RecordStrategy(StratJoinHash)
	Register("test-store", Entry{Metrics: func() any { return m.Snapshot() }})
	defer Unregister("test-store")

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/holistic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	var entries []struct {
		Name    string          `json:"name"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatalf("response not a JSON source array: %v\n%s", err, body)
	}
	var found bool
	for _, e := range entries {
		if e.Name == "test-store" {
			found = true
			var qs QuerySnapshot
			if err := json.Unmarshal(e.Metrics, &qs); err != nil {
				t.Fatalf("metrics payload: %v", err)
			}
			if qs.Latency["count"].Count != 1 {
				t.Fatalf("count latency digest missing: %+v", qs.Latency)
			}
			if qs.Strategies["join/hash"] != 1 {
				t.Fatalf("strategy counter missing: %+v", qs.Strategies)
			}
		}
	}
	if !found {
		t.Fatalf("test-store source not in response:\n%s", body)
	}
}

func TestHandlerVarsAndPprof(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["holistic"]; !ok {
		t.Fatal("/debug/vars missing the holistic variable")
	}
	if expvar.Get("holistic") == nil {
		t.Fatal("expvar bridge not published")
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

func TestHandlerFlightEndpoint(t *testing.T) {
	Register("test-store", Entry{Flight: func() any {
		return map[string]any{"ring_capacity": 64, "events": []any{}}
	}})
	defer Unregister("test-store")

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/holistic/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var entries []struct {
		Name   string          `json:"name"`
		Flight json.RawMessage `json:"flight"`
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatalf("flight response not a JSON array: %v\n%s", err, body)
	}
	found := false
	for _, e := range entries {
		if e.Name == "test-store" {
			found = true
			var m map[string]any
			if err := json.Unmarshal(e.Flight, &m); err != nil {
				t.Fatalf("flight payload: %v", err)
			}
			if m["ring_capacity"] != float64(64) {
				t.Fatalf("flight payload missing ring_capacity: %v", m)
			}
		}
	}
	if !found {
		t.Fatalf("test-store flight source not in response:\n%s", body)
	}
}

func TestHealthzReadyz(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	ready := false
	Register("test-store", Entry{Ready: func() bool { return ready }})
	defer Unregister("test-store")

	check := func(wantCode int, wantReady bool, wantFailed []string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("/readyz status = %d, want %d", resp.StatusCode, wantCode)
		}
		var out struct {
			Ready    bool     `json:"ready"`
			NotReady []string `json:"not_ready"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Ready != wantReady {
			t.Fatalf("/readyz ready = %v, want %v", out.Ready, wantReady)
		}
		if len(out.NotReady) != len(wantFailed) {
			t.Fatalf("/readyz not_ready = %v, want %v", out.NotReady, wantFailed)
		}
		for i := range wantFailed {
			if out.NotReady[i] != wantFailed[i] {
				t.Fatalf("/readyz not_ready = %v, want %v", out.NotReady, wantFailed)
			}
		}
	}
	check(503, false, []string{"test-store"})
	ready = true
	check(200, true, nil)
}

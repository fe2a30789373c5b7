// The process metrics registry and HTTP surface: every store registers
// one Entry — its snapshot functions and its Prometheus collector — and
// the registry serves them together as JSON on /debug/holistic and
// /debug/holistic/flight, as the expvar
// variable "holistic" on /debug/vars, as the /metrics exposition, behind
// /readyz, and next to the standard pprof handlers — the endpoint
// cmd/holisticserve and `holisticbench -metrics-addr` mount.

package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"

	"holistic/internal/obs/prom"
)

// Entry is what one publisher — a store, or the serving process for its
// readiness — registers. Every function is called on every scrape of its
// endpoint and must be safe for concurrent use; a nil function leaves
// the publisher out of that endpoint (a store without a flight ring has
// no Flight).
type Entry struct {
	// Metrics (the store's full snapshot) and Flight (decoded ring plus
	// watchdog state) are served on /debug/holistic and
	// /debug/holistic/flight.
	Metrics, Flight func() any
	// Prom streams the store's samples through the scrape's shared
	// prom.Writer (which deduplicates HELP/TYPE metadata across stores),
	// served on /metrics.
	Prom func(*prom.Writer)
	// Ready is a readiness probe: /readyz reports ready only when every
	// registered probe returns true.
	Ready func() bool
}

var (
	regMu   sync.Mutex
	entries = map[string]Entry{}
)

// Register publishes an entry under name; re-registering a name
// replaces it.
func Register(name string, e Entry) {
	regMu.Lock()
	entries[name] = e
	regMu.Unlock()
}

// Unregister removes a publisher from every endpoint; unknown names are
// a no-op.
func Unregister(name string) {
	regMu.Lock()
	delete(entries, name)
	regMu.Unlock()
}

// registered copies the registry in name order (stable for humans and
// smoke tests). Callers run the functions outside the lock: they may
// take locks of their own.
func registered() (names []string, es []Entry) {
	regMu.Lock()
	defer regMu.Unlock()
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		es = append(es, entries[n])
	}
	return names, es
}

// named is one store's element of a JSON endpoint's array:
// {"name": ..., "<key>": <payload>}, in that order.
type named struct {
	name, key string
	payload   any
}

func (n named) MarshalJSON() ([]byte, error) {
	name, _ := json.Marshal(n.name)
	payload, err := json.Marshal(n.payload)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, `{"name":%s,%q:%s}`, name, n.key, payload), nil
}

// json returns the entry's snapshot function for one JSON endpoint,
// named by the key its payload is served under.
func (e Entry) json(key string) func() any {
	return map[string]func() any{"metrics": e.Metrics, "flight": e.Flight}[key]
}

// snapshot evaluates one JSON endpoint over every entry that serves it.
func snapshot(key string) []named {
	names, es := registered()
	out := make([]named, 0, len(names))
	for i, e := range es {
		if fn := e.json(key); fn != nil {
			out = append(out, named{names[i], key, fn()})
		}
	}
	return out
}

// The expvar bridge: one variable holding every store's metrics by name,
// so the standard /debug/vars surface carries the holistic telemetry too.
func init() {
	expvar.Publish("holistic", expvar.Func(func() any {
		out := make(map[string]any)
		for _, n := range snapshot("metrics") {
			out[n.name] = n.payload
		}
		return out
	}))
}

// serveJSON is the one body of the two /debug/holistic* endpoints: one
// snapshot of every store as an indented JSON array.
func serveJSON(key string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot(key))
	}
}

// serveProm streams the Prometheus text exposition: every store's
// collector, in name order, through one metadata-deduplicating writer.
func serveProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	pw := prom.NewWriter(w)
	_, es := registered()
	for _, e := range es {
		if e.Prom != nil {
			e.Prom(pw)
		}
	}
}

// serveHealthz is liveness: the process is up and serving.
func serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// serveReadyz is readiness: 200 once every registered probe passes
// (recovery replayed, daemon started), 503 with the failing probe
// names otherwise — the signal a load balancer keys traffic on.
func serveReadyz(w http.ResponseWriter, _ *http.Request) {
	names, es := registered()
	var failed []string
	for i, e := range es {
		if e.Ready != nil && !e.Ready() {
			failed = append(failed, names[i])
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if len(failed) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(struct {
		Ready    bool     `json:"ready"`
		NotReady []string `json:"not_ready,omitempty"`
	}{len(failed) == 0, failed})
}

// Handler returns the debug mux: /debug/holistic (JSON snapshot of all
// registered stores), /debug/holistic/flight (decoded flight-recorder
// rings and watchdog state), /metrics (Prometheus text exposition),
// /healthz and /readyz (liveness/readiness), /debug/vars (expvar,
// including the "holistic" variable) and /debug/pprof/* (the standard
// profiles).
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/holistic", serveJSON("metrics"))
	mux.HandleFunc("/debug/holistic/flight", serveJSON("flight"))
	mux.HandleFunc("/metrics", serveProm)
	mux.HandleFunc("/healthz", serveHealthz)
	mux.HandleFunc("/readyz", serveReadyz)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

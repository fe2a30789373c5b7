package flight

import (
	"sync"
	"time"

	"holistic/internal/obs"
)

// Trigger names the anomaly class that fired the watchdog.
type Trigger uint32

const (
	// TriggerNone marks a dump taken without an anomaly.
	TriggerNone Trigger = iota
	// TriggerManual is an on-demand Store.FlightDump.
	TriggerManual
	// TriggerCheckpoint is the periodic dump riding every snapshot
	// checkpoint, so a kill -9 always leaves a decodable black box.
	TriggerCheckpoint
	// TriggerP99 fired because the rolling window's p99 exceeded the
	// SLO multiple of the baseline or the absolute SLO bound.
	TriggerP99
	// TriggerConvergence fired because the daemon's convergence ratio
	// regressed below its best observed value.
	TriggerConvergence
	// TriggerPanic fired because daemon WorkerPanics incremented.
	TriggerPanic
	// TriggerTornTail fired because crash recovery found a torn WAL
	// tail at boot.
	TriggerTornTail
)

var triggerNames = [...]string{
	TriggerNone:        "none",
	TriggerManual:      "manual",
	TriggerCheckpoint:  "checkpoint",
	TriggerP99:         "p99_slo",
	TriggerConvergence: "convergence_regression",
	TriggerPanic:       "worker_panic",
	TriggerTornTail:    "torn_wal_tail",
}

func (t Trigger) String() string {
	if int(t) < len(triggerNames) {
		return triggerNames[t]
	}
	return "unknown"
}

// The anomaly rules. Nothing outside the tests ever set them to anything
// else, so they are constants, not configuration.
const (
	// sloMultiple: window p99 above sloMultiple x the rolling baseline
	// p99 is an anomaly.
	sloMultiple = 4
	// minSamples: windows with fewer observations are never judged.
	minSamples = 32
	// convergenceSlack: a convergence ratio more than this far below its
	// best observed value is a regression.
	convergenceSlack = 0.05
	// DumpCooldown is the minimum gap between anomaly-triggered dumps,
	// bounding dump storms while an incident is ongoing.
	DumpCooldown = 30 * time.Second
)

// Watchdog maintains rolling latency and convergence baselines from
// periodic observations and decides when the ring should be dumped.
// Latency baselines are built from HistSnapshot deltas: each Observe
// call passes the *cumulative* merged latency snapshot; the watchdog
// diffs it against the previous call's to get the window distribution,
// then folds the window p99 into an EWMA baseline.
type Watchdog struct {
	// absoluteP99: a window p99 above this bound is an anomaly regardless
	// of the baseline; 0 leaves only the relative rule.
	absoluteP99 time.Duration

	mu          sync.Mutex
	prev        obs.HistSnapshot // last cumulative snapshot
	havePrev    bool
	baseline    float64 // EWMA of window p99, nanoseconds; 0 = unset
	windows     int64
	lastP99     float64 // last judged window's p99, nanoseconds
	lastSamples uint64
	bestConv    float64
	haveConv    bool
	lastPanics  int64
	anomalies   int64
	lastTrigger Trigger
	lastAnomaly time.Time
	suppressed  int64
	dumps       int64
}

// baselineAlpha is the EWMA weight of the newest window.
const baselineAlpha = 0.2

// NewWatchdog returns a watchdog enforcing the absolute p99 bound (0 =
// none) next to the relative rule.
func NewWatchdog(absoluteP99 time.Duration) *Watchdog {
	return &Watchdog{absoluteP99: absoluteP99}
}

// Observation is one periodic reading of the system's health signals.
type Observation struct {
	// Latency is the cumulative merged latency snapshot across all
	// query operations. May be nil when no queries ran yet.
	Latency *obs.HistSnapshot
	// Convergence is the daemon's convergence ratio; valid only when
	// HaveConvergence is set (non-holistic modes have none).
	Convergence     float64
	HaveConvergence bool
	// WorkerPanics is the daemon's cumulative panic count.
	WorkerPanics int64
}

// Verdict is the outcome of one Observe call.
type Verdict struct {
	// Trigger is the anomaly class, TriggerNone when healthy.
	Trigger Trigger
	// Dump reports whether a dump should be written now (anomaly
	// detected and outside the cooldown window).
	Dump bool
	// WindowP99NS and BaselineP99NS describe the judged window.
	WindowP99NS   int64
	BaselineP99NS int64
	// Samples is the window observation count.
	Samples int64
	// Convergence echoes the observed ratio (when valid).
	Convergence float64
	// WorkerPanics echoes the cumulative panic count.
	WorkerPanics int64
}

// Observe folds one reading into the rolling baselines and returns the
// anomaly verdict. Anomalous windows do not poison the latency
// baseline.
func (w *Watchdog) Observe(o Observation) Verdict {
	w.mu.Lock()
	defer w.mu.Unlock()

	var v Verdict
	v.Convergence = o.Convergence
	v.WorkerPanics = o.WorkerPanics

	// Latency window: diff the cumulative snapshot against the
	// previous observation.
	var window obs.HistSnapshot
	haveWindow := false
	if o.Latency != nil {
		window = *o.Latency
		if w.havePrev {
			window.Diff(&w.prev)
		}
		w.prev = *o.Latency
		w.havePrev = true
		haveWindow = true
	}
	if haveWindow {
		v.Samples = int64(window.Count)
	}
	judged := haveWindow && window.Count >= minSamples
	p99 := float64(0)
	if judged {
		p99 = float64(window.Quantile(0.99).Nanoseconds())
		v.WindowP99NS = int64(p99)
		v.BaselineP99NS = int64(w.baseline)
		w.lastP99 = p99
		w.lastSamples = window.Count
	}

	// Rule 1: daemon worker panicked since the last observation.
	if o.WorkerPanics > w.lastPanics {
		v.Trigger = TriggerPanic
	}
	w.lastPanics = o.WorkerPanics

	// Rule 2: convergence ratio regressed below its best.
	if v.Trigger == TriggerNone && o.HaveConvergence {
		if w.haveConv && o.Convergence+convergenceSlack < w.bestConv {
			v.Trigger = TriggerConvergence
		}
		if !w.haveConv || o.Convergence > w.bestConv {
			w.bestConv = o.Convergence
			w.haveConv = true
		}
	}

	// Rule 3: window p99 against the absolute SLO and the rolling
	// baseline multiple.
	if v.Trigger == TriggerNone && judged {
		if w.absoluteP99 > 0 && p99 > float64(w.absoluteP99.Nanoseconds()) {
			v.Trigger = TriggerP99
		} else if w.baseline > 0 && p99 > sloMultiple*w.baseline {
			v.Trigger = TriggerP99
		}
	}

	// Fold healthy judged windows into the baseline.
	if judged && v.Trigger == TriggerNone {
		if w.baseline == 0 {
			w.baseline = p99
		} else {
			w.baseline += baselineAlpha * (p99 - w.baseline)
		}
	}
	if judged {
		w.windows++
	}

	if v.Trigger != TriggerNone {
		w.anomalies++
		w.lastTrigger = v.Trigger
		now := time.Now()
		if w.lastAnomaly.IsZero() || now.Sub(w.lastAnomaly) >= DumpCooldown {
			v.Dump = true
			w.lastAnomaly = now
		} else {
			w.suppressed++
		}
	}
	return v
}

// NoteTornTail records a boot-time torn-WAL-tail anomaly (always
// dump-worthy; cooldown does not apply to crash evidence).
func (w *Watchdog) NoteTornTail() Verdict {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.anomalies++
	w.lastTrigger = TriggerTornTail
	w.lastAnomaly = time.Now()
	return Verdict{Trigger: TriggerTornTail, Dump: true}
}

// NoteDump counts a written dump (any trigger).
func (w *Watchdog) NoteDump() {
	w.mu.Lock()
	w.dumps++
	w.mu.Unlock()
}

// State is the watchdog's JSON-friendly status for metrics and the
// flight endpoint.
type State struct {
	Windows         int64   `json:"windows"`
	BaselineP99US   float64 `json:"baseline_p99_us"`
	LastWindowP99US float64 `json:"last_window_p99_us"`
	LastSamples     uint64  `json:"last_window_samples"`
	BestConvergence float64 `json:"best_convergence,omitempty"`
	Anomalies       int64   `json:"anomalies"`
	Suppressed      int64   `json:"suppressed_dumps"`
	LastTrigger     string  `json:"last_trigger"`
	DumpsWritten    int64   `json:"dumps_written"`
	// DumpCooldownMS echoes the effective anomaly-dump cooldown, so
	// operators can see the pacing a suppressed count was judged under.
	DumpCooldownMS int64 `json:"dump_cooldown_ms"`
}

// State snapshots the watchdog.
func (w *Watchdog) State() State {
	if w == nil {
		return State{LastTrigger: TriggerNone.String()}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return State{
		Windows:         w.windows,
		BaselineP99US:   w.baseline / 1e3,
		LastWindowP99US: w.lastP99 / 1e3,
		LastSamples:     w.lastSamples,
		BestConvergence: w.bestConv,
		Anomalies:       w.anomalies,
		Suppressed:      w.suppressed,
		LastTrigger:     w.lastTrigger.String(),
		DumpsWritten:    w.dumps,
		DumpCooldownMS:  DumpCooldown.Milliseconds(),
	}
}

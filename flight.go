// The flight-recorder surface (DESIGN.md §11): every Store keeps a
// bounded lock-free ring of structured events — query timings,
// representation/strategy decisions, daemon refinements, WAL and
// checkpoint lifecycle — and a watchdog that baselines latency and
// convergence, dumping the ring to a checksummed flight-*.bin in the
// durable directory when an anomaly fires.

package holistic

import (
	"fmt"
	"io"
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/flight"
)

// FlightDump encodes the store's current flight-recorder ring — every
// retained event plus the attribute intern table, CRC32C-checksummed —
// and writes it to w. It returns the number of bytes written. The
// format round-trips through flight.Decode; flightdump files written
// by the watchdog use the same encoding. Stores with flight recording
// disabled (Config.FlightEvents < 0) return an error.
func (s *Store) FlightDump(w io.Writer) (int, error) {
	if s.flight == nil {
		return 0, fmt.Errorf("holistic: flight recording is disabled")
	}
	var gen uint64
	if s.dur != nil {
		gen = s.dur.generation()
	}
	data := flight.Encode(s.flight, flight.TriggerManual, gen)
	n, err := w.Write(data)
	if err == nil {
		s.wd.NoteDump()
	}
	return n, err
}

// PriorFlightDumps lists the flight-dump file names that recovery
// found in the data directory at open — the post-mortems of earlier
// processes, oldest first. Purely in-memory stores return nil.
func (s *Store) PriorFlightDumps() []string {
	if s.dur == nil {
		return nil
	}
	return s.dur.priorFlightDumps()
}

// FlightStatus is the flight block of Store.Metrics.
type FlightStatus struct {
	// EventsRecorded is the lifetime event count; RingCapacity how many
	// of the most recent events the ring retains.
	EventsRecorded uint64 `json:"events_recorded"`
	RingCapacity   int    `json:"ring_capacity"`
	// DumpKeep is the configured on-disk dump retention of a durable
	// store (Config.FlightDumpKeep; the dump cooldown is inside
	// Watchdog).
	DumpKeep int `json:"dump_keep"`
	// Watchdog is the anomaly detector's rolling state.
	Watchdog flight.State `json:"watchdog"`
}

// flightStatus assembles the metrics block; nil when disabled.
func (s *Store) flightStatus() *FlightStatus {
	if s.flight == nil {
		return nil
	}
	return &FlightStatus{
		EventsRecorded: s.flight.Head(),
		RingCapacity:   s.flight.Cap(),
		DumpKeep:       s.cfg.flightDumpKeep(),
		Watchdog:       s.wd.State(),
	}
}

// flightState renders the ring and watchdog for the
// /debug/holistic/flight endpoint: JSON-decoded events (oldest first)
// plus the watchdog state and any prior on-disk dumps.
func (s *Store) flightState() any {
	events := s.flight.Snapshot()
	names := s.flight.Names()
	decoded := make([]map[string]any, len(events))
	for i, e := range events {
		decoded[i] = e.Fields(names)
	}
	return map[string]any{
		"ring_capacity":   s.flight.Cap(),
		"events_recorded": s.flight.Head(),
		"watchdog":        s.wd.State(),
		"prior_dumps":     s.PriorFlightDumps(),
		"events":          decoded,
	}
}

// stopWatchdog terminates the watchdog goroutine (idempotent).
func (s *Store) stopWatchdog() {
	if s.wdStop != nil {
		s.wdOnce.Do(func() { close(s.wdStop) })
	}
}

// watchdogLoop drives periodic watchdog observations until Close.
func (s *Store) watchdogLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.wdStop:
			return
		case <-t.C:
			s.watchdogTick()
		}
	}
}

// watchdogTick takes one observation — the cumulative merged latency
// digest, the daemon's convergence ratio and panic count — and, when
// the watchdog calls anomaly, records the trigger into the ring and
// dumps it to the durable directory.
func (s *Store) watchdogTick() {
	var hist obs.HistSnapshot
	s.met.MergedLatency(&hist)
	o := flight.Observation{Latency: &hist}
	s.mu.Lock()
	exec := s.exec
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	if d := daemonOf(exec); d != nil {
		o.WorkerPanics = d.WorkerPanics()
		if conv := d.Convergence(); conv != nil {
			o.Convergence = conv.Ratio
			o.HaveConvergence = true
		}
	}
	v := s.wd.Observe(o)
	if v.Trigger == flight.TriggerNone {
		return
	}
	s.flight.RecordAnomaly(v.Trigger, v.WindowP99NS, v.BaselineP99NS, v.Convergence, v.WorkerPanics, v.Samples)
	if v.Dump && s.dur != nil {
		s.dur.flightDump(v.Trigger)
	}
}

// The flight-recorder surface (DESIGN.md §9): every Store's observer
// keeps a bounded lock-free ring of structured events — query timings,
// representation/strategy decisions, daemon refinements, WAL and
// checkpoint lifecycle — and a watchdog that baselines latency and
// convergence, dumping the ring to a checksummed flight-*.bin in the
// durable directory when an anomaly fires.

package holistic

import (
	"fmt"
	"io"

	"holistic/internal/obs/flight"
	"holistic/internal/obs/observer"
)

// FlightDump encodes the store's current flight-recorder ring — every
// retained event plus the attribute intern table, CRC32C-checksummed —
// and writes it to w. It returns the number of bytes written. The
// format round-trips through flight.Decode; flightdump files written
// by the watchdog use the same encoding. Stores with flight recording
// disabled (Config.FlightEvents < 0) return an error.
func (s *Store) FlightDump(w io.Writer) (int, error) {
	if s.ob.Flight == nil {
		return 0, fmt.Errorf("holistic: flight recording is disabled")
	}
	var gen uint64
	if s.dur != nil {
		gen = s.dur.generation()
	}
	n, err := w.Write(flight.Encode(s.ob.Flight, flight.TriggerManual, gen))
	if err == nil {
		s.ob.DumpWritten()
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
	// DumpKeep is the on-disk dump retention of a durable store (the
	// dump cooldown is inside Watchdog).
	DumpKeep int `json:"dump_keep"`
	// Watchdog is the anomaly detector's rolling state.
	Watchdog flight.State `json:"watchdog"`
}

// health is the sampler's view of the holistic daemon, once per tick.
func (s *Store) health() (h observer.Health) {
	s.mu.Lock()
	exec, closed := s.exec, s.closed
	s.mu.Unlock()
	d := daemonOf(exec)
	if closed || d == nil {
		return h
	}
	h.Refinements, h.WorkerPanics = d.Refinements(), d.WorkerPanics()
	if conv := d.Convergence(); conv != nil {
		h.Convergence, h.HaveConvergence = conv.Ratio, true
	}
	return h
}

// anomalyDump preserves the ring in the durable directory when the
// sampler's watchdog calls an anomaly; in-memory stores keep it in the
// ring only.
func (s *Store) anomalyDump(trig flight.Trigger) {
	if s.dur != nil {
		s.dur.flightDump(trig)
	}
}

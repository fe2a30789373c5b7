// The in-process time-series store (DESIGN.md §12): every
// Config.TimelineInterval the store samples its cumulative counters and
// latency histograms into a bounded obs.TimeSeries ring, which
// deltifies them into per-window rates and p99s — the data behind
// /debug/holistic/timeline. The sampler reuses the watchdog's
// snapshot-diff machinery (cumulative HistSnapshot in, per-window
// distribution out), so "what did the last five minutes look like" is
// answerable from inside the process with no external scraper.

package holistic

import (
	"time"

	"holistic/internal/obs"
)

// timelineCounters names the cumulative counters each window deltifies,
// in the order timelineTick samples them.
var timelineCounters = []string{
	"queries",
	"selects",
	"cracker_builds",
	"merged_updates",
	"refinements",
	"refine_invested_ns",
	"flight_events",
}

// timelineHists names the cumulative latency histograms each window
// diffs, in the order timelineTick samples them.
var timelineHists = []string{"query_latency", "select_latency"}

// stopTimeline terminates the timeline sampler goroutine (idempotent).
func (s *Store) stopTimeline() {
	if s.tsStop != nil {
		s.tsOnce.Do(func() { close(s.tsStop) })
	}
}

// timelineLoop drives periodic time-series observations until Close.
func (s *Store) timelineLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.tsStop:
			return
		case <-t.C:
			s.timelineTick(time.Now())
		}
	}
}

// timelineTick takes one cumulative observation — counters and latency
// snapshots — and hands it to the ring, which turns consecutive
// observations into per-window deltas. Cold path (once per interval).
func (s *Store) timelineTick(now time.Time) {
	s.mu.Lock()
	exec := s.exec
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	var refinements int64
	if d := daemonOf(exec); d != nil {
		refinements = d.Refinements()
	}
	var flightEvents int64
	if s.flight != nil {
		flightEvents = int64(s.flight.Head())
	}
	counters := []int64{
		int64(s.met.Seq()),
		s.execMet.Selects.Load(),
		s.execMet.CrackerBuilds.Load(),
		s.execMet.MergedUpdates.Load(),
		refinements,
		s.ec.TotalInvestedNS(),
		flightEvents,
	}
	var qlat, slat obs.HistSnapshot
	s.met.MergedLatency(&qlat)
	s.execMet.SelectLatency.Snapshot(&slat)
	s.ts.Observe(now, counters, []*obs.HistSnapshot{&qlat, &slat})
}

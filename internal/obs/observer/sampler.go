package observer

import (
	"time"

	"holistic/internal/obs"
	"holistic/internal/obs/flight"
)

// Health is what a sampler tick needs from outside the observer: the
// holistic daemon's state. The zero value means "no daemon".
type Health struct {
	Refinements, WorkerPanics int64
	Convergence               float64
	HaveConvergence           bool
}

// Start launches the sampler — the store's one observability goroutine —
// unless both cadences are off. Each tick takes one merged-latency
// snapshot and hands it to whichever consumers are due: the watchdog,
// which baselines it and may call dump with the anomaly that fired, and
// the time-series ring. health is called once per tick. Stop ends it.
func (o *Observer) Start(health func() Health, dump func(flight.Trigger)) {
	wd, tl := o.cfg.Watchdog, o.cfg.Timeline
	if o.Watchdog == nil {
		wd = 0
	}
	if wd <= 0 && tl <= 0 {
		return
	}
	o.done = make(chan struct{})
	go o.sample(wd, tl, health, dump)
}

// Stop terminates the sampler and waits for it; idempotent, and a no-op
// when Start never launched one.
func (o *Observer) Stop() {
	o.stopOnce.Do(func() { close(o.stop) })
	if o.done != nil {
		<-o.done
	}
}

// sample wakes whenever the earlier of the two consumers is due;
// cadences that coincide (the default 1 s and 5 s do, every fifth tick)
// share the tick's snapshot.
func (o *Observer) sample(wd, tl time.Duration, health func() Health, dump func(flight.Trigger)) {
	defer close(o.done)
	const never = time.Duration(1<<63 - 1) // a consumer that is off never comes due
	if wd <= 0 {
		wd = never
	}
	if tl <= 0 {
		tl = never
	}
	start := time.Now()
	wdDue, tlDue := start.Add(wd), start.Add(tl)
	timer := time.NewTimer(min(wd, tl))
	defer timer.Stop()
	for {
		select {
		case <-o.stop:
			return
		case now := <-timer.C:
			doWd, doTl := !now.Before(wdDue), !now.Before(tlDue)
			if doWd {
				wdDue = now.Add(wd)
			}
			if doTl {
				tlDue = now.Add(tl)
			}
			if trig, fire := o.Tick(now, health(), doWd, doTl); fire && dump != nil {
				dump(trig)
			}
			timer.Reset(min(time.Until(wdDue), time.Until(tlDue)))
		}
	}
}

// Tick takes one observation: the cumulative merged latency digest is
// computed once and feeds the watchdog (with the daemon's convergence
// and panic count) and the time-series ring (with the cumulative
// counters), each of which diffs it against its own previous reading.
// When the watchdog calls an anomaly the trigger is recorded into the
// ring, and dump reports that the ring should be preserved now.
func (o *Observer) Tick(now time.Time, h Health, watchdog, timeline bool) (trig flight.Trigger, dump bool) {
	var lat obs.HistSnapshot
	o.Query.MergedLatency(&lat)
	if timeline && o.Timeline != nil {
		var flightEvents int64
		if o.Flight != nil {
			flightEvents = int64(o.Flight.Head())
		}
		var sel obs.HistSnapshot
		o.Exec.SelectLatency.Snapshot(&sel)
		o.Timeline.Observe(now, []int64{
			int64(o.Query.Seq()),
			o.Exec.Selects.Load(),
			o.Exec.CrackerBuilds.Load(),
			o.Exec.MergedUpdates.Load(),
			h.Refinements,
			o.Econ.TotalInvestedNS(),
			flightEvents,
		}, []*obs.HistSnapshot{&lat, &sel})
	}
	if !watchdog || o.Watchdog == nil {
		return flight.TriggerNone, false
	}
	v := o.Watchdog.Observe(flight.Observation{
		Latency:         &lat,
		Convergence:     h.Convergence,
		HaveConvergence: h.HaveConvergence,
		WorkerPanics:    h.WorkerPanics,
	})
	if v.Trigger == flight.TriggerNone {
		return flight.TriggerNone, false
	}
	o.Flight.RecordAnomaly(v.Trigger, v.WindowP99NS, v.BaselineP99NS, v.Convergence, v.WorkerPanics, v.Samples)
	return v.Trigger, v.Dump
}

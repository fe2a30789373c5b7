package holistic

import (
	"bytes"
	"testing"
	"time"

	"holistic/internal/durable"
	"holistic/internal/obs/flight"
)

// kindCounts tallies decoded flight events by kind.
func kindCounts(events []flight.Event) map[flight.Kind]int {
	m := make(map[flight.Kind]int)
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}

// TestFlightDumpRoundtrip drives queries through an in-memory store,
// dumps the ring with Store.FlightDump and asserts the dump decodes to
// the query, representation and strategy audit events the workload
// must have produced.
func TestFlightDumpRoundtrip(t *testing.T) {
	s := NewStore(Config{Mode: ModeAdaptive, Threads: 2, Seed: 1})
	defer s.Close()
	n := 4096
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64((i * 37) % 1000)
		b[i] = int64((i * 53) % 500)
	}
	if err := s.AddIntColumn("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("b", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Query().Where("a", int64(i*10), 900).Where("b", 0, 400).Count(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query().Where("a", 0, 1<<62).GroupBy("b").Aggregate(Count()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	wrote, err := s.FlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != buf.Len() {
		t.Fatalf("FlightDump reported %d bytes, wrote %d", wrote, buf.Len())
	}
	d, err := flight.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("dump does not decode: %v", err)
	}
	if d.Trigger != flight.TriggerManual {
		t.Errorf("dump trigger = %v, want manual", d.Trigger)
	}
	ks := kindCounts(d.Events)
	if ks[flight.EvQuery] < 9 {
		t.Errorf("dump holds %d query events, want >= 9", ks[flight.EvQuery])
	}
	if ks[flight.EvRep] < 8 {
		t.Errorf("dump holds %d representation events, want >= 8", ks[flight.EvRep])
	}
	if ks[flight.EvStrategy] < 1 {
		t.Errorf("dump holds %d strategy events, want >= 1", ks[flight.EvStrategy])
	}

	m := s.Metrics()
	if m.Flight == nil {
		t.Fatal("Metrics().Flight missing on a flight-enabled store")
	}
	if m.Flight.EventsRecorded == 0 || m.Flight.RingCapacity == 0 {
		t.Errorf("flight status empty: %+v", m.Flight)
	}
	if m.Flight.Watchdog.DumpsWritten < 1 {
		t.Errorf("watchdog counted %d dumps, want >= 1", m.Flight.Watchdog.DumpsWritten)
	}
	// The dump pacing is fixed, and still surfaced.
	if m.Flight.DumpKeep != 8 || m.Flight.Watchdog.DumpCooldownMS != 30_000 {
		t.Errorf("dump keep %d / cooldown %dms, want 8 / 30000", m.Flight.DumpKeep, m.Flight.Watchdog.DumpCooldownMS)
	}
}

// TestFlightDisabled asserts FlightEvents < 0 turns the subsystem off:
// queries run, FlightDump refuses, and Metrics carries no flight block.
func TestFlightDisabled(t *testing.T) {
	s := NewStore(Config{Mode: ModeScan, Threads: 1, FlightEvents: -1})
	defer s.Close()
	if err := s.AddIntColumn("a", []int64{3, 1, 4, 1, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CountRange("a", 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlightDump(&bytes.Buffer{}); err == nil {
		t.Fatal("FlightDump succeeded with flight recording disabled")
	}
	if s.Metrics().Flight != nil {
		t.Fatal("Metrics().Flight present with flight recording disabled")
	}
}

// TestWatchdogAnomalyFlightDump injects a latency anomaly (an absolute
// p99 SLO of one nanosecond that every query breaches) and asserts the
// watchdog dumps the ring to the durable directory, with the dump
// decoding to the full audit trail: queries, representation and
// strategy decisions, daemon refinement steps, and the anomaly event.
func TestWatchdogAnomalyFlightDump(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeHolistic)
	cfg.SLOP99 = time.Nanosecond
	cfg.WatchdogInterval = 25 * time.Millisecond
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 50_000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64((i * 31) % 40_000)
		b[i] = int64((i * 17) % 100)
	}
	if err := s.AddIntColumn("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("b", b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CountRange("a", 100, 20_000); err != nil {
		t.Fatal(err)
	}

	// Let the daemon refine so the ring holds refinement and cycle
	// events before the anomaly fires (the dump must audit them too).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := s.Stats(); st.Activations > 0 && st.Refinements > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Skip("daemon ran no refinement in 2s; skipping anomaly dump assertion")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A grouped query records a strategy decision.
	if _, err := s.Query().Where("a", 0, 1<<62).GroupBy("b").Aggregate(Count()); err != nil {
		t.Fatal(err)
	}

	// Checkpoints riding the column additions above already dumped;
	// anything beyond this count is the watchdog's anomaly dump.
	base, err := durable.ListFlightDumps(fs)
	if err != nil {
		t.Fatal(err)
	}

	// Storm enough queries that a watchdog window passes MinSamples;
	// every one breaches the 1ns SLO, so the first judged window dumps.
	var dumps []string
	deadline = time.Now().Add(5 * time.Second)
	for len(dumps) <= len(base) && time.Now().Before(deadline) {
		for i := 0; i < 40; i++ {
			if _, err := s.CountRange("a", int64(i*7), int64(i*7+5000)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
		if dumps, err = durable.ListFlightDumps(fs); err != nil {
			t.Fatal(err)
		}
	}
	if len(dumps) <= len(base) {
		t.Fatal("watchdog wrote no flight dump under an injected p99 anomaly")
	}

	data, err := fs.ReadFile(dumps[len(dumps)-1])
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.Decode(data)
	if err != nil {
		t.Fatalf("anomaly dump does not decode: %v", err)
	}
	if d.Trigger != flight.TriggerP99 {
		t.Errorf("dump trigger = %v, want p99_slo", d.Trigger)
	}
	ks := kindCounts(d.Events)
	for _, want := range []flight.Kind{
		flight.EvQuery, flight.EvRep, flight.EvStrategy,
		flight.EvRefine, flight.EvCycle, flight.EvAnomaly,
	} {
		if ks[want] == 0 {
			t.Errorf("anomaly dump holds no %v events: %v", want, ks)
		}
	}

	m := s.Metrics()
	if m.Flight == nil || m.Flight.Watchdog.Anomalies < 1 {
		t.Fatalf("watchdog state does not report the anomaly: %+v", m.Flight)
	}
	if m.Flight.Watchdog.DumpsWritten < 1 {
		t.Errorf("watchdog counted %d dumps, want >= 1", m.Flight.Watchdog.DumpsWritten)
	}
	if m.Recovery == nil || m.Recovery.FlightDumps < 1 {
		t.Errorf("recovery metrics do not count the flight dump: %+v", m.Recovery)
	}
	if m.Recovery != nil && m.Recovery.LastFlightDump != dumps[len(dumps)-1] {
		t.Errorf("LastFlightDump = %q, want %q", m.Recovery.LastFlightDump, dumps[len(dumps)-1])
	}
}

// TestTornTailFlightDump kills a store mid-WAL-append and asserts boot
// recovery records the torn tail as an anomaly and writes a dump.
func TestTornTailFlightDump(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeAdaptive)
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("a", []int64{5, 3, 9, 1, 7}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{20, 21, 22} {
		if err := s.Insert("a", v); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the next WAL append mid-write, torn flavor: half of the new
	// record persists, leaving a torn tail for recovery to find.
	fs.KillAt(1, true)
	_ = s.Insert("a", 23) // dies at the injected kill point
	fs.Crash()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Metrics()
	if m.Recovery == nil || !m.Recovery.TornWALTail {
		t.Skipf("tear did not produce a torn tail (recovery: %+v)", m.Recovery)
	}
	dumps, err := durable.ListFlightDumps(fs)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint dumps ride along (column snapshots); find the one the
	// torn tail triggered.
	var torn *flight.Dump
	for _, name := range dumps {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := flight.Decode(data)
		if err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
		if d.Trigger == flight.TriggerTornTail {
			torn = d
		}
	}
	if torn == nil {
		t.Fatal("no torn-tail flight dump after recovery")
	}
	ks := kindCounts(torn.Events)
	if ks[flight.EvRecovery] == 0 {
		t.Errorf("torn-tail dump holds no recovery event: %v", ks)
	}
	if ks[flight.EvAnomaly] == 0 {
		t.Errorf("torn-tail dump holds no anomaly event: %v", ks)
	}
	if m.Flight == nil || m.Flight.Watchdog.LastTrigger != "torn_wal_tail" {
		t.Errorf("watchdog last trigger = %+v, want torn_wal_tail", m.Flight)
	}
}

package obs

// DurableMetrics counts the persistence layer's activity: the write-
// ahead log, the background snapshotter, and — set once at open — what
// recovery found and replayed. All counters are lock-free; the WAL
// counters sit on the (cold) logged-write path, the recovery counters
// are written before the store serves queries.
type DurableMetrics struct {
	// WAL activity.
	WALRecords Counter // records appended
	WALBytes   Counter // payload bytes framed

	// Snapshot activity.
	Snapshots        Counter // snapshot generations committed
	SnapshotFailures Counter // checkpoint attempts that failed

	// Recovery findings, written once at OpenStore.
	ReplayedRecords   Counter // WAL records re-applied
	ReplayErrors      Counter // replayed operations that re-failed (deterministic no-ops)
	ManifestFallbacks Counter // generations skipped as torn/corrupt
	RestoredIndexes   Counter // adaptive indexes rebuilt from state
	DroppedIndexes    Counter // state sections dropped to unrefined

	// Flight-recorder dumps (see DESIGN.md §9).
	FlightDumps        Counter // dumps committed (checkpoint + anomaly)
	FlightDumpFailures Counter // dump writes that failed
	PriorFlightDumps   Counter // dumps found on disk at open (post-mortems)
}

// DurableSnapshot is the JSON shape served on /debug/holistic under
// "recovery". The non-counter fields (sync count, clean/torn flags and
// the live generation) are filled by the store from the WAL and the
// recovery record.
type DurableSnapshot struct {
	WALRecords        int64  `json:"wal_records"`
	WALSyncs          int64  `json:"wal_syncs"`
	WALBytes          int64  `json:"wal_bytes"`
	Snapshots         int64  `json:"snapshots"`
	SnapshotFailures  int64  `json:"snapshot_failures"`
	ReplayedRecords   int64  `json:"replayed_records"`
	ReplayErrors      int64  `json:"replay_errors"`
	ManifestFallbacks int64  `json:"manifest_fallbacks"`
	RestoredIndexes   int64  `json:"restored_indexes"`
	DroppedIndexes    int64  `json:"dropped_indexes"`
	CleanStart        bool   `json:"clean_start"`
	TornWALTail       bool   `json:"torn_wal_tail"`
	Generation        uint64 `json:"generation"`

	// StateDropped: the adaptive-state file recovery found was unusable
	// as a whole (corrupt header, or written in an earlier format), so the
	// store opened data-only and its indexes rebuild from the data.
	StateDropped bool `json:"state_dropped"`
	// SnapshotBytes is the size of the column segments and state file the
	// last checkpoint of this process wrote; 0 before the first.
	SnapshotBytes int64 `json:"snapshot_bytes"`

	FlightDumps        int64  `json:"flight_dumps"`
	FlightDumpFailures int64  `json:"flight_dump_failures"`
	PriorFlightDumps   int64  `json:"prior_flight_dumps"`
	LastFlightDump     string `json:"last_flight_dump,omitempty"`
}

// Snapshot captures the current counter values.
func (m *DurableMetrics) Snapshot() *DurableSnapshot {
	return &DurableSnapshot{
		WALRecords:        m.WALRecords.Load(),
		WALBytes:          m.WALBytes.Load(),
		Snapshots:         m.Snapshots.Load(),
		SnapshotFailures:  m.SnapshotFailures.Load(),
		ReplayedRecords:   m.ReplayedRecords.Load(),
		ReplayErrors:      m.ReplayErrors.Load(),
		ManifestFallbacks: m.ManifestFallbacks.Load(),
		RestoredIndexes:   m.RestoredIndexes.Load(),
		DroppedIndexes:    m.DroppedIndexes.Load(),

		FlightDumps:        m.FlightDumps.Load(),
		FlightDumpFailures: m.FlightDumpFailures.Load(),
		PriorFlightDumps:   m.PriorFlightDumps.Load(),
	}
}

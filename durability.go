// Durability: OpenStore gives a Store a data directory backed by the
// internal/durable layer — a write-ahead log for Insert/Delete/Update,
// CRC32C-checksummed snapshot segments committed by manifest rename,
// and adaptive-state serialization so recovery restores not just the
// data but the cracker piece boundaries, sorted runs and convergence
// statistics the workload already paid for. See DESIGN.md §10.

package holistic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"holistic/internal/column"
	"holistic/internal/durable"
	"holistic/internal/engine"
	"holistic/internal/holistic"
	"holistic/internal/obs"
	"holistic/internal/obs/flight"
)

// WALSync selects the fsync policy of a durable store's write-ahead
// log (Config.WALSync).
type WALSync int

const (
	// WALSyncGroup (the default) fsyncs with group commit: concurrent
	// writers elect a leader whose single fsync covers every record
	// appended so far.
	WALSyncGroup WALSync = iota
	// WALSyncAlways fsyncs every record before acknowledging it — the
	// strict policy the crash-injection matrix asserts against.
	WALSyncAlways
	// WALSyncNone never fsyncs on the write path; acknowledged writes
	// may be lost on crash, durability is limited to snapshots.
	WALSyncNone
)

// walPolicy maps the public WALSync knob onto the durable layer's.
func (c Config) walPolicy() durable.SyncPolicy {
	switch c.WALSync {
	case WALSyncAlways:
		return durable.SyncAlways
	case WALSyncNone:
		return durable.SyncNone
	default:
		return durable.SyncGroup
	}
}

// OpenStore opens (creating if needed) a durable store in dir: it
// recovers the newest valid snapshot generation, rebuilds the adaptive
// indexes from their persisted state (unless Config.DataOnlyRecovery),
// replays the WAL tail, and from then on logs every Insert, Delete and
// Update before applying it. Snapshots are written in the background —
// the first logged write after a snapshot arms one timer
// (Config.SnapshotInterval) in every mode — and Close leaves a
// clean-shutdown marker so the next open skips replay.
//
// A recovered store that already holds columns serves queries
// immediately; AddIntColumn is only allowed when Columns is empty
// (a fresh directory).
func OpenStore(dir string, cfg Config) (*Store, error) {
	fs, err := durable.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return openStoreFS(fs, cfg)
}

// openStoreFS is OpenStore over an abstract filesystem — the seam the
// crash-injection tests drive with durable.FaultFS.
func openStoreFS(fs durable.FS, cfg Config) (*Store, error) {
	rec, err := durable.Recover(fs)
	if err != nil {
		return nil, fmt.Errorf("holistic: recover: %w", err)
	}
	s := newStore(cfg)
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = 10 * time.Second
	}
	d := &durability{
		fs:       fs,
		cfg:      cfg,
		met:      &obs.DurableMetrics{},
		s:        s,
		gen:      rec.Gen,
		walPart:  rec.NextPart,
		haveSnap: rec.Manifest != nil,
		clean:    rec.Clean,
		torn:     rec.TornTail,
		noState:  rec.StateDropped,
		interval: cfg.SnapshotInterval,
	}
	s.dur = d
	d.met.ManifestFallbacks.Add(int64(rec.Fallbacks))
	d.met.DroppedIndexes.Add(int64(rec.DroppedIndexes))

	if rec.TornTail && rec.SeqAfterReplay == rec.Gen {
		// The tear held no acknowledged record; retire the segment so a
		// later recovery never stops its replay at this stale tail.
		if err := durable.PruneWAL(fs, rec.Gen); err != nil {
			s.discard()
			return nil, fmt.Errorf("holistic: prune torn wal: %w", err)
		}
	}
	wal, err := durable.CreateLog(fs, durable.WALName(rec.Gen, rec.NextPart), rec.SeqAfterReplay, cfg.walPolicy())
	if err != nil {
		s.discard()
		return nil, fmt.Errorf("holistic: create wal: %w", err)
	}
	d.wal = wal
	d.dirty = int64(len(rec.Records))

	// Surface the previous process's flight dumps (its black box) and
	// start our own dump numbering after them.
	if prior, err := durable.ListFlightDumps(fs); err == nil {
		d.priorFlights = prior
		d.met.PriorFlightDumps.Add(int64(len(prior)))
		for _, name := range prior {
			if _, n, ok := durable.ParseFlightName(name); ok && n >= d.flightSeq {
				d.flightSeq = n + 1
			}
		}
	}
	if s.ob.Recovery(int64(rec.Gen), int64(len(rec.Records)), rec.TornTail,
		int64(len(rec.Indexes)), int64(rec.DroppedIndexes)) {
		// Crash evidence: the WAL tail was torn, so the previous process
		// died mid-write. The observer recorded the anomaly; preserve what
		// we know in a dump immediately.
		d.flightDump(flight.TriggerTornTail)
	}

	if rec.Manifest != nil && len(rec.Columns) > 0 {
		for _, cd := range rec.Columns {
			if err := s.table.AddColumn(column.NewBounded(cd.Name, cd.Base, cd.Lo, cd.Hi)); err != nil {
				s.discard()
				return nil, fmt.Errorf("holistic: recover column %q: %w", cd.Name, err)
			}
		}
		if _, err := s.executor(); err != nil {
			s.discard()
			return nil, err
		}
		d.installState(rec)
		for _, r := range rec.Records {
			d.met.ReplayedRecords.Inc()
			if err := applyRecord(d.exec, r); err != nil {
				// A replayed operation that fails here failed identically
				// before the crash (same state, same op): a deterministic
				// no-op, not a recovery error.
				d.met.ReplayErrors.Inc()
			}
		}
		if len(rec.Records) > 0 {
			// Bake the replay into a fresh generation: startup work is not
			// repaid on the next open, and any torn segment behind us drops
			// out of the replay set for good.
			if err := d.checkpoint(); err != nil {
				s.discard()
				return nil, fmt.Errorf("holistic: post-replay checkpoint: %w", err)
			}
		}
	}
	s.publish()
	return s, nil
}

// discard releases a store whose open failed partway: whatever
// openStoreFS acquired so far — the executor with its daemon and
// workers, the WAL file — goes, and nothing is flushed.
func (s *Store) discard() { s.shutdown(false) }

// Columns lists the store's column names, in insertion order. A
// recovered store reports the persisted columns.
func (s *Store) Columns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.ColumnNames()
}

// Checkpoint forces a snapshot of the current data and adaptive state,
// rotating the WAL. Stores without a data directory return an error.
func (s *Store) Checkpoint() error {
	if s.dur == nil {
		return errors.New("holistic: store has no data directory")
	}
	if s.closed.Load() {
		return ErrClosed
	}
	return s.dur.checkpoint()
}

// durability is the per-store persistence engine behind OpenStore.
type durability struct {
	fs  durable.FS
	cfg Config
	met *obs.DurableMetrics
	s   *Store

	clean bool // last shutdown was clean (recovery skipped replay)
	torn  bool // recovery stopped replay at a torn WAL frame
	// noState: recovery could not use the adaptive-state file at all
	noState bool

	interval time.Duration // background snapshot delay; negative = disabled

	// writeMu serializes logged writes with each other and with
	// checkpoints; the lock order is Store.mu -> writeMu -> executor
	// locks (pendMu, cracker latches).
	writeMu   sync.Mutex
	wal       *durable.Log
	exec      *engine.Executor // cached by attachExec; nil until first build
	gen       uint64           // generation of the current manifest
	walPart   int              // part number of the live WAL segment
	haveSnap  bool             // a manifest for gen exists on disk
	dirty     int64            // records appended since the last checkpoint
	snapBytes int64            // segment and state bytes of the last checkpoint
	syncsBase int64            // fsyncs of already-rotated segments (telemetry)
	// snap is the background snapshot timer, created by the first
	// logged write and re-armed by each write that dirties a clean
	// generation; close stops it.
	snap   *time.Timer
	closed bool

	// Flight-recorder dump state: flightSeq numbers this process's
	// dumps, priorFlights are the dumps recovery found on disk, and
	// lastFlight names the newest dump this process committed.
	flightSeq    int
	priorFlights []string
	lastFlight   string
}

// The on-disk flight dumps are bounded by flightDumpKeep: the writer
// self-prunes (generation Prune deliberately does not own flight-*
// files, so anomaly post-mortems survive snapshot turnover).

// generation reads the current snapshot generation.
func (d *durability) generation() uint64 {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.gen
}

// priorFlightDumps returns the dump names recovery found at open.
func (d *durability) priorFlightDumps() []string {
	return append([]string(nil), d.priorFlights...)
}

// flightDump commits one flight-recorder dump under the write lock.
func (d *durability) flightDump(trig flight.Trigger) {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if !d.closed {
		d.flightDumpLocked(trig)
	}
}

// flightDumpLocked encodes the ring and commits it as the next
// flight-<gen>-<n>.bin via the tmp+rename protocol, then self-prunes
// old dumps. Best-effort: a failed dump is counted, never fatal — the
// flight recorder must not take down the write path it observes.
func (d *durability) flightDumpLocked(trig flight.Trigger) {
	if d.s.ob.Flight == nil {
		return
	}
	data := flight.Encode(d.s.ob.Flight, trig, d.gen)
	name := durable.FlightName(d.gen, d.flightSeq)
	if err := durable.WriteFlightDump(d.fs, name, data); err != nil {
		d.met.FlightDumpFailures.Inc()
		return
	}
	d.flightSeq++
	d.lastFlight = name
	d.met.FlightDumps.Inc()
	d.s.ob.DumpWritten()
	_ = durable.PruneFlightDumps(d.fs, flightDumpKeep)
}

// attachExec caches the executor on first build and, for a fresh
// directory, commits the initial snapshot so the columns — and the
// positional base every WAL record replays against — are on disk before
// the first logged write. Called under Store.mu.
func (d *durability) attachExec(exec *engine.Executor) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.exec = exec
	if !d.haveSnap {
		if err := d.checkpointLocked(); err != nil {
			return fmt.Errorf("holistic: initial checkpoint: %w", err)
		}
	}
	return nil
}

// logged runs one write through the WAL: append the record, apply it in
// memory under the write lock, then make it durable (group commit under
// the default policy) before acknowledging. It carries the
// //holistic:alloc-ok boundary for the durable write path: mutations are
// cold relative to queries, and nothing on the query hot path may reach
// past it into WAL framing (the noalloc check enforces the split).
//
//holistic:alloc-ok durable write path is cold; record framing and error wrapping may allocate
func (d *durability) logged(rec durable.Record) error {
	d.writeMu.Lock()
	if d.closed {
		d.writeMu.Unlock()
		return ErrClosed
	}
	if !d.haveSnap {
		// The initial checkpoint failed at executor build; the columns
		// this record replays against are not on disk yet. Retry before
		// logging anything.
		if err := d.checkpointLocked(); err != nil {
			d.writeMu.Unlock()
			return fmt.Errorf("holistic: initial checkpoint: %w", err)
		}
	}
	seq, err := d.wal.Append(rec)
	if err != nil {
		d.writeMu.Unlock()
		return fmt.Errorf("holistic: wal append: %w", err)
	}
	d.met.WALRecords.Inc()
	d.met.WALBytes.Add(int64(19 + len(rec.Attr)))
	if d.dirty++; d.dirty == 1 && d.interval > 0 {
		d.armSnapshot()
	}
	applyErr := applyRecord(d.exec, rec)
	wal := d.wal
	d.writeMu.Unlock()
	if err := wal.Commit(seq); err != nil {
		return fmt.Errorf("holistic: wal commit: %w", err)
	}
	return applyErr
}

// checkpoint takes the write lock and commits a snapshot generation.
func (d *durability) checkpoint() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked()
}

// checkpointLocked commits the snapshot protocol under writeMu:
//
//  1. sync the live WAL segment — every record the snapshot bakes in
//     is durable before the manifest claims to cover it;
//  2. stream the column segments and the adaptive-state file of the
//     NEXT generation straight from the live arrays, then fsync them
//     all — generations strictly increase, so no file of the
//     still-valid current generation is ever touched in place and a
//     crash mid-write always leaves the previous snapshot intact;
//  3. write manifest.tmp, sync it, rename it into place (the commit
//     point — a crash on either side leaves a valid directory);
//  4. rotate the WAL to the new generation so replay starts empty;
//  5. prune, keeping the new and previous generations (the previous
//     one is the fallback if the new manifest is later found torn).
//
// Writers are blocked for the duration; checkpoints are background
// work on the snapshot timer, not a query-path operation. Every call
// writes a full snapshot — queries refine adaptive state without
// dirtying the WAL, so "no new records" does not mean "nothing worth
// persisting"; the dirty-records gate lives in snapshotDue.
func (d *durability) checkpointLocked() error {
	start := time.Now()
	if err := d.wal.Sync(); err != nil {
		d.met.SnapshotFailures.Inc()
		return err
	}
	gen := d.gen + 1
	records := d.dirty
	cols, indexes, daemon := d.export()
	m := &durable.Manifest{Generation: gen, Mode: d.cfg.Mode.String(), Daemon: daemon}
	written, err := durable.WriteSnapshot(d.fs, m, cols, indexes)
	if err != nil {
		d.met.SnapshotFailures.Inc()
		return err
	}
	wal, err := durable.CreateLog(d.fs, durable.WALName(gen, 0), d.wal.Seq(), d.cfg.walPolicy())
	if err != nil {
		d.met.SnapshotFailures.Inc()
		return err
	}
	old := d.wal
	prev := d.gen
	d.wal = wal
	d.walPart = 0
	d.gen = gen
	d.haveSnap = true
	d.dirty = 0
	d.snapBytes = written
	d.met.Snapshots.Inc()
	_ = old.Close()
	d.syncsBase += old.Syncs()
	d.s.ob.Checkpoint(int64(gen), records, written, time.Since(start).Nanoseconds())
	// Persist the black box alongside the generation: a kill -9 at any
	// later point leaves a decodable dump of the events up to here.
	d.flightDumpLocked(flight.TriggerCheckpoint)
	// Best-effort: recovery always starts from the newest valid
	// manifest, so leftover generations are waste, not corruption.
	_ = durable.Prune(d.fs, map[uint64]bool{gen: true, prev: true})
	return nil
}

// export names the logical column data and the mode's adaptive state for
// a snapshot, copying neither. Runs under writeMu, so no logged write is in
// flight; concurrent queries may keep cracking, which never changes
// logical content.
func (d *durability) export() ([]durable.ColumnData, []durable.IndexSource, *durable.DaemonState) {
	if d.exec == nil {
		// Checkpointed before any query built the executor.
		return engine.ExportTableData(d.s.table), nil, nil
	}
	cols, states := d.exec.ExportDurable()
	dm := d.exec.Daemon()
	if dm == nil {
		return cols, states, nil
	}
	t := dm.CycleTotals()
	return cols, states, &durable.DaemonState{
		Cycles:        t.Cycles,
		Workers:       t.Workers,
		WorkerTimeNS:  int64(t.WorkerTime),
		WallNS:        int64(t.Wall),
		Refinements:   t.Refinements,
		MergedUpdates: t.MergedUpdates,
		TotalAttempts: dm.Attempts(),
		BusyRerolls:   dm.BusyRerolls(),
	}
}

// installState reinstates the recovered adaptive state onto the eagerly
// built executor. Per-index degradation: a state blob that fails
// validation drops only that index — the attribute falls back to the
// unrefined path, which rebuilds from the recovered data exactly as a
// first query would.
func (d *durability) installState(rec *durable.Recovered) {
	states := rec.Indexes
	if d.cfg.DataOnlyRecovery {
		states = nil
	}
	// The totals go back first: restoring an index admits it, which
	// starts the daemon, and its first cycle must continue the
	// recovered numbering.
	dm, ds := d.exec.Daemon(), rec.Manifest.Daemon
	if dm != nil && ds != nil && !d.cfg.DataOnlyRecovery {
		dm.RestoreTotals(holistic.CycleTotals{
			Cycles:        ds.Cycles,
			Workers:       ds.Workers,
			WorkerTime:    time.Duration(ds.WorkerTimeNS),
			Wall:          time.Duration(ds.WallNS),
			Refinements:   ds.Refinements,
			MergedUpdates: ds.MergedUpdates,
		}, ds.TotalAttempts, ds.BusyRerolls)
	}
	restored, dropped := d.exec.RestoreDurable(rec.Columns, states)
	d.met.RestoredIndexes.Add(int64(restored))
	d.met.DroppedIndexes.Add(int64(dropped))
}

// armSnapshot starts the interval a write waits for its background
// snapshot. Called under writeMu.
func (d *durability) armSnapshot() {
	if d.snap == nil {
		d.snap = time.AfterFunc(d.interval, d.snapshotDue)
	} else {
		d.snap.Reset(d.interval)
	}
}

// snapshotDue is the background snapshot policy, run by the timer once
// the first unsnapshotted write has waited an interval: checkpoint if
// records are still unsnapshotted, and try again an interval later if
// that fails (failures are counted; the WAL still covers the records).
func (d *durability) snapshotDue() {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.closed || d.dirty == 0 {
		return
	}
	if err := d.checkpointLocked(); err != nil {
		d.armSnapshot()
	}
}

// close flushes everything and leaves the clean-shutdown marker: a
// final checkpoint if records are unsnapshotted (so the next open
// replays nothing), then the CLEAN file naming the generation. I/O
// errors are swallowed — the WAL already made acknowledged writes
// durable, and an unclean-looking directory just means replay. Without
// flush (an open that failed partway) only the WAL file is closed: the
// directory stays exactly as recovery found it.
func (d *durability) close(flush bool) {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	if d.snap != nil {
		d.snap.Stop()
	}
	if d.wal == nil {
		return // the open failed before the WAL existed
	}
	// A final snapshot whenever an executor ran: queries refine the
	// adaptive state without dirtying the WAL, and that refinement is
	// exactly what a restart should not have to repay.
	if flush && (d.dirty > 0 || !d.haveSnap || d.exec != nil) {
		_ = d.checkpointLocked()
	}
	_ = d.wal.Close()
	if flush && d.haveSnap && d.dirty == 0 {
		_ = durable.WriteCleanMarker(d.fs, d.gen)
	}
}

// snapshotMetrics assembles the recovery/WAL telemetry for Metrics.
func (d *durability) snapshotMetrics() *obs.DurableSnapshot {
	sn := d.met.Snapshot()
	sn.CleanStart = d.clean
	sn.TornWALTail = d.torn
	sn.StateDropped = d.noState
	d.writeMu.Lock()
	sn.WALSyncs = d.syncsBase + d.wal.Syncs()
	sn.Generation = d.gen
	sn.SnapshotBytes = d.snapBytes
	sn.LastFlightDump = d.lastFlight
	d.writeMu.Unlock()
	return sn
}

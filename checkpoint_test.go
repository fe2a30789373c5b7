package holistic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"holistic/internal/column"
	"holistic/internal/durable"
	"holistic/internal/model"
)

// convergedDurable opens an adaptive store in dir holding attrs columns of
// n random 30-bit values and runs queries range counts over them.
func convergedDurable(t *testing.T, dir string, n, attrs, queries int) (*Store, Config, []string) {
	t.Helper()
	cfg := Config{Mode: ModeAdaptive, Threads: 1, Seed: 1, SnapshotInterval: -1}
	s, err := OpenStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const domain = 1 << 30
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "d"}[:attrs]
	for _, name := range names {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(domain)
		}
		if err := s.AddIntColumn(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < queries; i++ {
		lo := rng.Int63n(domain)
		if _, err := s.CountRange(names[i%attrs], lo, lo+1+rng.Int63n(domain-lo)); err != nil {
			t.Fatal(err)
		}
	}
	return s, cfg, names
}

// totalAlloc returns the bytes fn allocated.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointAllocationBound: a checkpoint streams from the live arrays
// through one chunk, so what it allocates is that chunk, the flight dump
// and a boundary table per index — nothing that grows with the rows — and
// a reopen allocates the arrays the store keeps, once each. A clone of a
// base column, a decoded copy of a cracker or a whole-file buffer on
// either path is megabytes over.
func TestCheckpointAllocationBound(t *testing.T) {
	const n, attrs, queries = 256 << 10, 4, 2500
	dir := t.TempDir()
	s, cfg, _ := convergedDurable(t, dir, n, attrs, queries)
	if err := s.Checkpoint(); err != nil { // the first one sizes the pools
		t.Fatal(err)
	}
	pieces := uint64(s.Stats().Pieces)
	var err error
	got := totalAlloc(func() { err = s.Checkpoint() })
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2<<20 + 64*pieces; got > limit {
		t.Errorf("Checkpoint of %d x %d rows in %d pieces allocated %d bytes, limit %d", attrs, n, pieces, got, limit)
	}
	if sn := s.Metrics().Recovery.SnapshotBytes; sn < 16*n*attrs || sn > 16*n*attrs+1<<20 {
		t.Errorf("snapshot_bytes = %d for %d bytes of base columns and as many of packed crackers", sn, 8*n*attrs)
	}
	s.Close()

	// Base values and packed words, 8 bytes a tuple each; the tree node,
	// piece and boundary-table entries of every piece.
	arrays := uint64(16 * n * attrs)
	var r *Store
	got = totalAlloc(func() { r, err = OpenStore(dir, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m := r.Metrics().Recovery; m.RestoredIndexes != attrs {
		t.Fatalf("reopen restored %d of %d indexes", m.RestoredIndexes, attrs)
	}
	if limit := arrays + 2<<20 + 256*pieces; got > limit {
		t.Errorf("reopen allocated %d bytes for %d bytes of persisted arrays, limit %d", got, arrays, limit)
	}
}

// TestCheckpointUnderConcurrentQueries: checkpoints stream cracker arrays
// that reader goroutines are cracking and the daemon is refining, with
// writes in between. After a kill, every column the last checkpoint
// persisted must restore — its words, keys and starts were one cut — pass
// CheckInvariants, and answer every range like the model.
func TestCheckpointUnderConcurrentQueries(t *testing.T) {
	const rows, readers, checkpoints, writesEach = 1 << 16, 3, 8, 40
	cfg := durCfg(ModeHolistic)
	cfg.RefinementsPerWorker = 8
	cfg.L1CacheBytes = 1024
	fs := durable.NewFaultFS()
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"p", "q", "w"}
	pool := make([]int64, 4096)
	for i := range pool {
		pool[i] = rng.Int63n(1 << 20)
	}
	m := model.New(attrs)
	for _, attr := range attrs {
		base := make([]int64, rows)
		for i := range base {
			base[i] = pool[rng.Intn(len(pool))]
		}
		if attr == "w" { // no 2^32 window holds these: the wide layout
			base[0], base[1] = math.MinInt64, math.MaxInt64
		}
		for i, v := range base {
			m.Put(attr, uint32(i), v)
		}
		if err := s.AddIntColumn(attr, base); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				attr := attrs[rng.Intn(len(attrs))]
				lo := pool[rng.Intn(len(pool))]
				var err error
				if rng.Intn(4) == 0 {
					_, err = s.SelectRows(attr, lo, lo+1+rng.Int63n(1<<14))
				} else {
					_, err = s.CountRange(attr, lo, lo+1+rng.Int63n(1<<18))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + g))
	}
	for c := 0; c < checkpoints; c++ {
		for w := 0; w < writesEach; w++ {
			attr := attrs[rng.Intn(len(attrs))]
			op := scriptOp{kind: "idu"[rng.Intn(3)], attr: attr, a: pool[rng.Intn(len(pool))], b: pool[rng.Intn(len(pool))]}
			if op.kind != 'i' {
				live := m.Rows(nil, attr)
				op.a, _ = m.Get(attr, live[rng.Intn(len(live))])
			}
			if missing := op.applyModel(m); missing != "" {
				t.Fatal(missing)
			}
			if err := op.apply(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// The kill: nothing is flushed, the directory is what the last
	// checkpoint and the WAL made durable.
	s.discard()
	fs.Crash()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec := r.Metrics().Recovery; rec.RestoredIndexes != int64(len(attrs)) || rec.DroppedIndexes != 0 || rec.StateDropped {
		t.Fatalf("restored %d indexes, dropped %d, state file dropped = %v; want all %d restored", rec.RestoredIndexes, rec.DroppedIndexes, rec.StateDropped, len(attrs))
	}
	for _, attr := range attrs {
		col := r.exec.Load().CrackerIfExists(attr)
		if col == nil {
			t.Fatalf("%s: no cracker after the restore", attr)
		}
		if err := col.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored column: %v", attr, err)
		}
		// The bounds the base column came back with (the loader hands them
		// to NewBounded) are its values', updates folded in.
		base := r.table.Column(attr)
		wantLo, wantHi := column.Bounds(base.Values())
		if lo, hi := base.Bounds(); lo != wantLo || hi != wantHi {
			t.Fatalf("%s: recovered base bounds (%d, %d), a scan finds (%d, %d)", attr, lo, hi, wantLo, wantHi)
		}
		checkAttr(t, "after kill", r, attr, m, rng, pool)
	}
}

// stateFile returns the name and content of the newest state file in fs.
func stateFile(t *testing.T, fs durable.FS) (string, []byte) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		if strings.HasPrefix(names[i], "state-") {
			data, err := fs.ReadFile(names[i])
			if err != nil {
				t.Fatal(err)
			}
			return names[i], data
		}
	}
	t.Fatal("no state file")
	return "", nil
}

// encodeStateV1 frames states as the HSTA1 file the previous format
// version wrote: per section its length and checksum, then name, kind,
// has-rows flag, three counts, values, row ids, keys, starts, statistics.
// Packed words are decoded into values and row ids, which is all HSTA1
// could hold.
func encodeStateV1(states []durable.IndexState) []byte {
	le := binary.LittleEndian
	buf := []byte("HSTA1\n")
	buf = le.AppendUint32(buf, uint32(len(states)))
	for _, st := range states {
		vals, rows := st.Vals, st.Rows
		if st.Layout == durable.LayoutPacked {
			vals, rows = make([]int64, len(st.Vals)), make([]uint32, len(st.Vals))
			for i, w := range st.Vals {
				vals[i], rows[i] = w>>32+st.Ref+1<<31, uint32(w)
			}
		}
		sec := le.AppendUint16(nil, uint16(len(st.Attr)))
		sec = append(sec, st.Attr...)
		hasRows := byte(0)
		if rows != nil {
			hasRows = 1
		}
		sec = append(sec, byte(st.Kind), hasRows)
		sec = le.AppendUint32(sec, uint32(len(vals)))
		sec = le.AppendUint32(sec, uint32(len(rows)))
		sec = le.AppendUint32(sec, uint32(len(st.Keys)))
		for _, v := range vals {
			sec = le.AppendUint64(sec, uint64(v))
		}
		for _, r := range rows {
			sec = le.AppendUint32(sec, r)
		}
		for _, k := range st.Keys {
			sec = le.AppendUint64(sec, uint64(k))
		}
		for _, p := range st.Starts {
			sec = le.AppendUint32(sec, p)
		}
		sec = le.AppendUint64(sec, uint64(st.Accesses))
		sec = le.AppendUint64(sec, uint64(st.Hits))
		sec = append(sec, st.StatsState)
		buf = le.AppendUint32(buf, uint32(len(sec)))
		buf = le.AppendUint32(buf, crc32.Checksum(sec, crc32.MakeTable(crc32.Castagnoli)))
		buf = append(buf, sec...)
	}
	return buf
}

// TestOldStateFormatDegradesToDataOnly: a directory whose state file is
// the previous format's opens like one whose state file is corrupt — the
// data answers, no index is restored, the drop is reported — and the next
// checkpoint writes the current format, which the open after it restores.
func TestOldStateFormatDegradesToDataOnly(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeAdaptive)
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 100_003)
	}
	if err := s.AddIntColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]int)
	for q := int64(0); q < 40; q++ {
		lo := q * 2_000
		if want[lo], err = s.CountRange("a", lo, lo+5_000); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	name, data := stateFile(t, fs)
	states, dropped, err := durable.DecodeState(data)
	if err != nil || dropped != 0 || len(states) != 1 {
		t.Fatalf("the state file written: %d states, %d dropped, %v", len(states), dropped, err)
	}
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeStateV1(states)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics().Recovery; !m.StateDropped || m.RestoredIndexes != 0 {
		t.Fatalf("HSTA1 state file: state_dropped = %v, %d indexes restored", m.StateDropped, m.RestoredIndexes)
	}
	if got := r.Stats().Pieces; got != 0 {
		t.Fatalf("data-only open starts with %d pieces", got)
	}
	for lo, n := range want {
		if got, err := r.CountRange("a", lo, lo+5_000); err != nil || got != n {
			t.Fatalf("CountRange(%d, %d) = %d, %v; want %d", lo, lo+5_000, got, err, n)
		}
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, data := stateFile(t, fs); !bytes.HasPrefix(data, []byte("HSTA2\n")) {
		t.Fatalf("the checkpoint after the degraded open wrote a state file starting %q", data[:6])
	}
	r.Close()

	r2, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if m := r2.Metrics().Recovery; m.StateDropped || m.RestoredIndexes != 1 {
		t.Fatalf("after the rewrite: state_dropped = %v, %d indexes restored", m.StateDropped, m.RestoredIndexes)
	}
}

// TestDiskFootprintBound: however many checkpoints a session takes, with
// writes between them, its directory holds two snapshot generations — of
// the base values at 8 bytes and the crackers at what they occupy in
// memory — the WAL since the last one, and at most flightDumpKeep flight
// dumps.
func TestDiskFootprintBound(t *testing.T) {
	const n, attrs, queries = 64 << 10, 2, 400
	dir := t.TempDir()
	s, _, names := convergedDurable(t, dir, n, attrs, queries)
	rng := rand.New(rand.NewSource(3))
	inserted := 0
	for c := 0; c < flightDumpKeep+3; c++ {
		for w := 0; w < 20; w++ {
			if err := s.Insert(names[w%attrs], rng.Int63n(1<<30)); err != nil {
				t.Fatal(err)
			}
			inserted++
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 20; w++ { // a WAL tail past the last checkpoint
		if err := s.Insert(names[w%attrs], rng.Int63n(1<<30)); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()

	generation := int64(8 * (n*attrs + inserted))
	for _, name := range names {
		col := s.exec.Load().CrackerIfExists(name)
		generation += col.SizeBytes() + 12*int64(col.Pieces())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot, wal int64
	gens := map[uint64]bool{}
	flights := 0
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch name := e.Name(); {
		case strings.HasPrefix(name, "flight-"):
			flights++
		case strings.HasPrefix(name, "wal-"):
			wal += info.Size()
		default:
			snapshot += info.Size()
			var gen uint64
			if strings.HasPrefix(name, "manifest-") {
				gen, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "manifest-"), ".json"), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				gens[gen] = true
			}
		}
	}
	if len(gens) != 2 {
		t.Errorf("the directory holds %d snapshot generations, want 2: %v", len(gens), gens)
	}
	if limit := 2*generation + 64<<10; snapshot > limit {
		t.Errorf("snapshot files take %d bytes, limit 2 x %d + 64 KiB", snapshot, generation)
	}
	if rec := s.Metrics().Recovery; wal > rec.WALBytes+64<<10 {
		t.Errorf("WAL files take %d bytes for %d bytes of records ever logged", wal, rec.WALBytes)
	}
	if flights == 0 || flights > flightDumpKeep {
		t.Errorf("%d flight dumps on disk, want 1..%d", flights, flightDumpKeep)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.tmp")); err == nil {
		t.Error("a manifest staging file was left behind")
	}
}

// TestWALBoundedBetweenCheckpoints: over several checkpoints with writes
// between them, the directory holds the two retained snapshot generations
// and the WAL that follows each, nothing older, and the WAL between two
// checkpoints is exactly the records written between them: per record, the
// 19 + len(attr) payload bytes the metrics count plus its 8-byte frame
// header.
func TestWALBoundedBetweenCheckpoints(t *testing.T) {
	const n, attrs, queries, checkpoints = 8 << 10, 2, 100, 4
	dir := t.TempDir()
	s, _, names := convergedDurable(t, dir, n, attrs, queries)
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	var prevFrames int64
	for k := range checkpoints {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		gen := s.Metrics().Recovery.Generation
		walBefore := s.Metrics().Recovery.WALBytes
		var payload, frames int64
		inserted := map[string][]int64{}
		for w := range 30 + 10*k {
			attr := names[w%attrs]
			var err error
			if v, old := rng.Int63n(1<<30), inserted[attr]; w%3 < 2 || len(old) == 0 {
				err = s.Insert(attr, v)
				inserted[attr] = append(old, v)
			} else {
				err = s.Update(attr, old[0], v)
				inserted[attr] = old[1:]
			}
			if err != nil {
				t.Fatal(err)
			}
			payload += int64(19 + len(attr))
			frames += int64(8 + 19 + len(attr))
		}
		if got := s.Metrics().Recovery.WALBytes - walBefore; got != payload {
			t.Errorf("checkpoint %d: the metrics count %d WAL payload bytes, want %d", k, got, payload)
		}

		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		wal := map[uint64]int64{}
		for _, e := range ents {
			name := e.Name()
			if strings.HasPrefix(name, "flight-") || name == "CLEAN" {
				continue
			}
			var g uint64
			if _, err := fmt.Sscanf(name[strings.IndexByte(name, '-')+1:], "%012d", &g); err != nil {
				t.Fatalf("checkpoint %d: unexpected file %s", k, name)
			}
			if g != gen && g != gen-1 {
				t.Errorf("checkpoint %d (generation %d): %s outlived its generation", k, gen, name)
			}
			if strings.HasPrefix(name, "wal-") {
				info, err := e.Info()
				if err != nil {
					t.Fatal(err)
				}
				wal[g] += info.Size()
			}
		}
		if wal[gen] != frames {
			t.Errorf("checkpoint %d: the live WAL takes %d bytes for %d bytes of framed records", k, wal[gen], frames)
		}
		if k > 0 && wal[gen-1] != prevFrames {
			t.Errorf("checkpoint %d: the retained WAL takes %d bytes for %d bytes of framed records", k, wal[gen-1], prevFrames)
		}
		prevFrames = frames
	}
}

// TestLongColumnNameRejected: the snapshot format frames a name's length
// in 16 bits, so a durable store refuses a longer one when the column is
// added — not at the first checkpoint, and never by truncating it. A store
// without a data directory has no such limit.
func TestLongColumnNameRejected(t *testing.T) {
	long := strings.Repeat("n", durable.MaxNameLen+1)
	s, err := openStoreFS(durable.NewFaultFS(), durCfg(ModeAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddIntColumn(long, []int64{1, 2, 3}); err == nil {
		t.Fatalf("a durable store took a column name of %d bytes", len(long))
	}
	if err := s.AddIntColumn(long[1:], []int64{1, 2, 3}); err != nil {
		t.Fatalf("a name of %d bytes: %v", len(long)-1, err)
	}
	if n, err := s.CountRange(long[1:], 2, 4); err != nil || n != 2 {
		t.Fatalf("CountRange on the longest name = %d, %v", n, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mem := NewStore(Config{Mode: ModeAdaptive})
	defer mem.Close()
	if err := mem.AddIntColumn(long, []int64{1}); err != nil {
		t.Fatalf("an in-memory store refused a long name: %v", err)
	}
}

package holistic

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"holistic/internal/durable"
	"holistic/internal/obs/flight"
)

// durCfg is the crash-matrix configuration: strict per-record fsync so
// acknowledged == durable exactly, and no background snapshots so the
// script controls every checkpoint.
func durCfg(mode Mode) Config {
	return Config{
		Mode:             mode,
		Threads:          2,
		Seed:             42,
		WALSync:          WALSyncAlways,
		SnapshotInterval: -1,
		TuningInterval:   time.Millisecond,
	}
}

// scriptOp is one step of the crash-matrix workload.
type scriptOp struct {
	kind byte // 'i' insert, 'd' delete, 'u' update, 'c' checkpoint, 'q' query
	attr string
	a, b int64
}

// apply runs the step against s.
func (op scriptOp) apply(s *Store) error {
	switch op.kind {
	case 'q':
		_, err := s.CountRange(op.attr, op.a, op.b)
		return err
	case 'c':
		return s.Checkpoint()
	case 'i':
		return s.Insert(op.attr, op.a)
	case 'd':
		return s.Delete(op.attr, op.a)
	}
	return s.Update(op.attr, op.a, op.b)
}

func matrixBases() (a, b []int64) {
	const n = 48
	a = make([]int64, n)
	b = make([]int64, n)
	for i := 0; i < n; i++ {
		a[i] = int64((i * 37) % 97)
		b[i] = int64((i * 53) % 89)
	}
	return a, b
}

// matrixScript is the scripted workload: queries crack the adaptive
// state, checkpoints bake it into snapshot generations, and the writes
// exercise every WAL record kind across both sides of a checkpoint.
func matrixScript(mode Mode) []scriptOp {
	baseA, baseB := matrixBases()
	ops := []scriptOp{
		{kind: 'q', attr: "a", a: 10, b: 60},
		{kind: 'q', attr: "b", a: 5, b: 40},
		{kind: 'c'},
	}
	if mode == ModeAdaptive || mode == ModeStochastic || mode == ModeHolistic {
		ops = append(ops,
			scriptOp{kind: 'i', attr: "a", a: 1001},
			scriptOp{kind: 'i', attr: "b", a: 2001},
			scriptOp{kind: 'd', attr: "a", a: baseA[5]},
			scriptOp{kind: 'u', attr: "b", a: baseB[7], b: 501},
			scriptOp{kind: 'q', attr: "a", a: 0, b: 97},
			scriptOp{kind: 'c'},
			scriptOp{kind: 'i', attr: "a", a: 1002},
			scriptOp{kind: 'd', attr: "b", a: baseB[9]},
			scriptOp{kind: 'u', attr: "a", a: 1001, b: 1003},
			scriptOp{kind: 'q', attr: "b", a: 0, b: 89},
		)
	} else {
		ops = append(ops,
			scriptOp{kind: 'q', attr: "a", a: 0, b: 97},
			scriptOp{kind: 'c'},
			scriptOp{kind: 'q', attr: "b", a: 0, b: 89},
		)
	}
	return ops
}

// runScript applies ops until the first error (after an injected crash
// every filesystem operation fails, so the first failure ends the run)
// and returns the acknowledged write operations.
func runScript(s *Store, ops []scriptOp) (acked []scriptOp) {
	for _, op := range ops {
		if err := op.apply(s); err != nil {
			return acked
		}
		if op.kind == 'i' || op.kind == 'd' || op.kind == 'u' {
			acked = append(acked, op)
		}
	}
	return acked
}

// oracleStore builds the never-crashed reference: an in-memory store
// with the same configuration holding the setup columns plus exactly
// the acknowledged writes.
func oracleStore(t *testing.T, mode Mode, acked []scriptOp) *Store {
	t.Helper()
	o := NewStore(durCfg(mode))
	baseA, baseB := matrixBases()
	if err := o.AddIntColumn("a", baseA); err != nil {
		t.Fatal(err)
	}
	if err := o.AddIntColumn("b", baseB); err != nil {
		t.Fatal(err)
	}
	for _, op := range acked {
		if err := op.apply(o); err != nil {
			t.Fatalf("oracle %c %s: %v", op.kind, op.attr, err)
		}
	}
	return o
}

// compareStores asserts byte-identical results between the recovered
// store and the oracle across every query shape.
func compareStores(t *testing.T, tag string, got, want, ref *Store) {
	t.Helper()
	ranges := [][2]int64{{0, 1 << 62}, {10, 60}, {5, 40}, {80, 2100}}
	for _, attr := range []string{"a", "b"} {
		for _, r := range ranges {
			gn, gerr := got.CountRange(attr, r[0], r[1])
			wn, werr := want.CountRange(attr, r[0], r[1])
			if gn != wn || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: Count(%s,%d,%d) = %d,%v want %d,%v", tag, attr, r[0], r[1], gn, gerr, wn, werr)
			}
			gs, _ := got.SumRange(attr, r[0], r[1])
			ws, _ := want.SumRange(attr, r[0], r[1])
			if gs != ws {
				t.Fatalf("%s: Sum(%s,%d,%d) = %d want %d", tag, attr, r[0], r[1], gs, ws)
			}
			gmn, gmx, gok, _ := got.MinMaxRange(attr, r[0], r[1])
			wmn, wmx, wok, _ := want.MinMaxRange(attr, r[0], r[1])
			if gmn != wmn || gmx != wmx || gok != wok {
				t.Fatalf("%s: MinMax(%s,%d,%d) = %d,%d,%v want %d,%d,%v", tag, attr, r[0], r[1], gmn, gmx, gok, wmn, wmx, wok)
			}
			grows, gerr := got.SelectRows(attr, r[0], r[1])
			wrows, werr := want.SelectRows(attr, r[0], r[1])
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: SelectRows(%s) err %v vs %v", tag, attr, gerr, werr)
			}
			sort.Slice(grows, func(i, j int) bool { return grows[i] < grows[j] })
			sort.Slice(wrows, func(i, j int) bool { return wrows[i] < wrows[j] })
			if fmt.Sprint(grows) != fmt.Sprint(wrows) {
				t.Fatalf("%s: SelectRows(%s,%d,%d) = %v want %v", tag, attr, r[0], r[1], grows, wrows)
			}
		}
	}
	gn, gerr := got.Query().Where("a", 10, 70).Where("b", 0, 50).Count()
	wn, werr := want.Query().Where("a", 10, 70).Where("b", 0, 50).Count()
	if gn != wn || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: conjunctive Count = %d,%v want %d,%v", tag, gn, gerr, wn, werr)
	}
	gg, gerr := got.Query().Where("a", 0, 1<<62).GroupBy("b").Aggregate(Count(), Sum("a"))
	wg, werr := want.Query().Where("a", 0, 1<<62).GroupBy("b").Aggregate(Count(), Sum("a"))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: GroupBy err %v vs %v", tag, gerr, werr)
	}
	if gerr == nil && fmt.Sprint(gg.Keys)+fmt.Sprint(gg.Aggs) != fmt.Sprint(wg.Keys)+fmt.Sprint(wg.Aggs) {
		t.Fatalf("%s: GroupBy = %v/%v want %v/%v", tag, gg.Keys, gg.Aggs, wg.Keys, wg.Aggs)
	}
	gj, gerr := got.Query().Where("a", 0, 1<<62).Join(ref.Query(), "a", "k").Count()
	wj, werr := want.Query().Where("a", 0, 1<<62).Join(ref.Query(), "a", "k").Count()
	if gj != wj || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: Join Count = %d,%v want %d,%v", tag, gj, gerr, wj, werr)
	}
}

// refJoinStore is the fixed right-hand relation of the matrix's join
// probe.
func refJoinStore(t *testing.T) *Store {
	t.Helper()
	ref := NewStore(Config{Mode: ModeScan, Threads: 1})
	k := make([]int64, 97)
	for i := range k {
		k[i] = int64(i)
	}
	if err := ref.AddIntColumn("k", k); err != nil {
		t.Fatal(err)
	}
	return ref
}

// validateFlightDumps asserts every committed flight-*.bin in fs is a
// CRC-valid frame that decodes to well-formed events: a dump committed
// at one checkpoint must survive any later kill intact (tmp+rename),
// and the newest dump must carry the audit trail of the checkpoint
// that wrote it. Returns the number of committed dumps.
func validateFlightDumps(t *testing.T, tag string, fs durable.FS) int {
	t.Helper()
	dumps, err := durable.ListFlightDumps(fs)
	if err != nil {
		t.Fatalf("%s: list flight dumps: %v", tag, err)
	}
	for i, name := range dumps {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatalf("%s: read %s: %v", tag, name, err)
		}
		d, err := flight.Decode(data)
		if err != nil {
			t.Fatalf("%s: %s does not decode: %v", tag, name, err)
		}
		if len(d.Events) == 0 {
			t.Fatalf("%s: %s decoded to zero events", tag, name)
		}
		lastSeq := uint64(0)
		checkpoints := 0
		for _, e := range d.Events {
			if e.Kind < flight.EvQuery || e.Kind > flight.EvAnomaly {
				t.Fatalf("%s: %s holds event of unknown kind %d", tag, name, e.Kind)
			}
			if e.Seq <= lastSeq {
				t.Fatalf("%s: %s events out of order: seq %d after %d", tag, name, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.Kind == flight.EvCheckpoint {
				checkpoints++
			}
		}
		// Every dump in this matrix is written by a checkpoint, so each
		// must record at least the checkpoints up to its own.
		if checkpoints < i+1 {
			t.Fatalf("%s: %s records %d checkpoint events, want >= %d", tag, name, checkpoints, i+1)
		}
	}
	return len(dumps)
}

// TestCrashMatrix kills the store at every mutating filesystem
// operation of a scripted workload — alternating clean and torn tears —
// and asserts the recovered store answers every query shape
// byte-identically to a never-crashed oracle holding exactly the
// acknowledged writes. All seven modes.
func TestCrashMatrix(t *testing.T) {
	modes := []Mode{ModeScan, ModeOffline, ModeOnline, ModeAdaptive, ModeStochastic, ModeCCGI, ModeHolistic}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			ref := refJoinStore(t)
			defer ref.Close()
			baseA, baseB := matrixBases()
			script := matrixScript(mode)

			// Counting run: how many mutating fs operations does the
			// whole lifecycle (open, script, close) perform?
			fs := durable.NewFaultFS()
			s, err := openStoreFS(fs, durCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddIntColumn("a", baseA); err != nil {
				t.Fatal(err)
			}
			if err := s.AddIntColumn("b", baseB); err != nil {
				t.Fatal(err)
			}
			runScript(s, script)
			s.Close()
			total := fs.Ops()
			if total < 10 {
				t.Fatalf("suspiciously few fs ops in counting run: %d", total)
			}

			step := 1
			if testing.Short() {
				step = 7
			}
			for k := 1; k <= total; k += step {
				torn := k%2 == 1
				tag := fmt.Sprintf("%s/kill=%d/torn=%v", mode, k, torn)
				fs := durable.NewFaultFS()
				fs.KillAt(k, torn)
				var acked []scriptOp
				s, err := openStoreFS(fs, durCfg(mode))
				if err == nil {
					if err := s.AddIntColumn("a", baseA); err != nil {
						t.Fatalf("%s: add column: %v", tag, err)
					}
					if err := s.AddIntColumn("b", baseB); err != nil {
						t.Fatalf("%s: add column: %v", tag, err)
					}
					acked = runScript(s, script)
					s.Close()
				}
				fs.Crash()

				// Any flight dump committed before the kill must decode
				// CRC-clean from the survivor filesystem.
				nd := validateFlightDumps(t, tag, fs)

				r, err := openStoreFS(fs, durCfg(mode))
				if err != nil {
					t.Fatalf("%s: reopen: %v", tag, err)
				}
				if got := len(r.PriorFlightDumps()); got != nd {
					t.Fatalf("%s: reopened store reports %d prior flight dumps, want %d", tag, got, nd)
				}
				if len(r.Columns()) == 0 {
					// The crash predates the initial snapshot: nothing was
					// ever acknowledged as durable.
					if len(acked) != 0 {
						t.Fatalf("%s: empty recovered store but %d acked writes", tag, len(acked))
					}
					r.Close()
					continue
				}
				oracle := oracleStore(t, mode, acked)
				compareStores(t, tag, r, oracle, ref)
				oracle.Close()
				r.Close()
			}
		})
	}
}

// TestCleanCloseSkipsReplay asserts the clean-shutdown marker works: a
// closed store reopens with zero replayed records and the clean flag
// set, and still holds every write.
func TestCleanCloseSkipsReplay(t *testing.T) {
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
	s.Close()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Metrics()
	if m.Recovery == nil {
		t.Fatal("durable store reports no recovery metrics")
	}
	if !m.Recovery.CleanStart {
		t.Errorf("CleanStart = false after clean close")
	}
	if m.Recovery.ReplayedRecords != 0 {
		t.Errorf("ReplayedRecords = %d after clean close, want 0", m.Recovery.ReplayedRecords)
	}
	n, err := r.CountRange("a", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("CountRange after clean reopen = %d, want 8", n)
	}
}

// TestUncleanReopenReplays asserts the WAL tail actually drives
// recovery when the clean marker is missing (simulated kill -9).
func TestUncleanReopenReplays(t *testing.T) {
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
	// No Close: the process dies with the WAL tail unsnapshotted.
	fs.Crash()
	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Metrics()
	if m.Recovery.ReplayedRecords != 3 {
		t.Errorf("ReplayedRecords = %d, want 3", m.Recovery.ReplayedRecords)
	}
	if m.Recovery.CleanStart {
		t.Error("CleanStart = true after simulated kill")
	}
	n, err := r.CountRange("a", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("CountRange after unclean reopen = %d, want 8", n)
	}
}

// TestAdaptiveStateRestored asserts that reopening a cracked store
// reinstates the cracker piece boundaries without re-running the
// workload, while DataOnlyRecovery rebuilds from scratch.
func TestAdaptiveStateRestored(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeAdaptive)
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 100_000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 2654435761) % 1_000_003)
	}
	if err := s.AddIntColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	var want int
	for q := 0; q < 100; q++ {
		lo := int64((q * 9973) % 900_000)
		c, err := s.CountRange("a", lo, lo+50_000)
		if err != nil {
			t.Fatal(err)
		}
		if lo == 0 {
			want = c
		}
	}
	pieces := s.Stats().Pieces
	if pieces < 50 {
		t.Fatalf("workload cracked only %d pieces", pieces)
	}
	s.Close()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Pieces; got < pieces {
		t.Errorf("restored Pieces = %d before any query, want >= %d", got, pieces)
	}
	if m := r.Metrics(); m.Recovery.RestoredIndexes != 1 {
		t.Errorf("RestoredIndexes = %d, want 1", m.Recovery.RestoredIndexes)
	}
	c, err := r.CountRange("a", 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if c != want {
		t.Errorf("restored first query = %d, want %d", c, want)
	}
	r.Close()

	dataOnly := cfg
	dataOnly.DataOnlyRecovery = true
	r2, err := openStoreFS(fs, dataOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Stats().Pieces; got != 0 {
		t.Errorf("DataOnlyRecovery Pieces = %d before any query, want 0", got)
	}
	c2, err := r2.CountRange("a", 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != want {
		t.Errorf("data-only first query = %d, want %d", c2, want)
	}
}

// TestGroupCommitConcurrentWrites drives the group-commit leader
// election under -race and asserts every acknowledged write survives a
// clean reopen.
func TestGroupCommitConcurrentWrites(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeAdaptive)
	cfg.WALSync = WALSyncGroup
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIntColumn("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := s.Insert("a", int64(1000+w*each+i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := r.CountRange("a", 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3+writers*each {
		t.Errorf("CountRange after reopen = %d, want %d", n, 3+writers*each)
	}
}

// TestHolisticDaemonStateRestored asserts the daemon's convergence
// accounting survives a restart.
func TestHolisticDaemonStateRestored(t *testing.T) {
	fs := durable.NewFaultFS()
	cfg := durCfg(ModeHolistic)
	s, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = int64((i * 31) % 40_000)
	}
	if err := s.AddIntColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CountRange("a", 100, 20_000); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	var cycles int64
	for {
		if st := s.Stats(); st.Activations > 0 && st.Refinements > 0 {
			cycles = int64(st.Activations)
			break
		}
		if time.Now().After(deadline) {
			t.Skip("daemon ran no cycle in 2s; skipping restore assertion")
		}
		time.Sleep(2 * time.Millisecond)
	}
	refinements := s.Stats().Refinements
	s.Close()

	r, err := openStoreFS(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if int64(st.Activations) < cycles {
		t.Errorf("restored Activations = %d, want >= %d", st.Activations, cycles)
	}
	if st.Refinements < refinements {
		t.Errorf("restored Refinements = %d, want >= %d", st.Refinements, refinements)
	}
}

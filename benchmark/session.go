package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"holistic"
)

// env is what the sessions of one run share: the workload shape, the data
// and oracle generated once from the seed, and where scratch files go.
type env struct {
	w      workloadDef
	d      *dataset
	o      *oracle
	seed   int64
	outDir string
}

func newEnv(w workloadDef, seed int64, outDir string) *env {
	d := generate(w, seed)
	return &env{w: w, d: d, o: newOracle(d, w), seed: seed, outDir: outDir}
}

// streams returns the clients' sequences of session k: client c replays the
// sequence seeded seed+k (+7919c, so clients do not share a stream).
func (e *env) streams(k int) [][]op {
	out := make([][]op, e.w.Clients)
	for c := range out {
		out[c] = genOps(e.w, e.d, e.seed+int64(k)+7919*int64(c))
	}
	return out
}

func (e *env) tmpDir(tag string) string {
	return filepath.Join(e.outDir, fmt.Sprintf("tmp-%d-%s", os.Getpid(), tag))
}

// session is everything one session measured.
type session struct {
	setup           time.Duration
	rep             *replayResult
	recover, reopen time.Duration
	memRatio        float64
	attempted       int
	failed          int
	firstErr        error

	// Read from the main store just before it closed.
	m holistic.Metrics
	// update-durable only.
	diskBytes int64
	replayed  int64 // WAL records replayed on the crash copy
	restored  int64 // indexes restored on the clean reopen
}

// heapInuse is the heap in use once garbage is gone. It collects twice: what
// a closed store leaves behind (pooled scratch, finalizers) survives the first
// collection.
func heapInuse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// runSession opens fresh stores over the run's columns and replays session k
// against the Store API, checking every answer. limit > 0 makes it a head:
// only each client's first limit operations, for the metrics of a store's
// first moments (early_s, first_touch_ms, the cold start), without the heap
// measurement and the restart a full session ends with. rec is nil except on
// the traced top rung.
func (e *env) runSession(k, limit int, rec func(streams [][]op) *rungRecorder) (*session, error) {
	s := &session{}
	streams := e.streams(k)
	if limit > 0 {
		for c := range streams {
			streams[c] = streams[c][:min(limit, len(streams[c]))]
		}
	}
	cfg := e.w.config(e.seed)
	dir := ""
	if e.w.Durable {
		dir = e.tmpDir(fmt.Sprintf("s%d", k))
		defer os.RemoveAll(dir)
		defer os.RemoveAll(dir + ".crash")
	}
	base := heapInuse()

	t0 := time.Now()
	st, err := openStores(e.w, e.d, cfg, dir)
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)

	var rr *rungRecorder
	if rec != nil {
		rr = rec(streams)
	}
	s.rep = replay(st, streams, e.w.Think, rr)
	for c, seq := range streams {
		s.failed += e.o.verify(seq, s.rep.t[c], e.seed+int64(k))
		if s.firstErr == nil {
			s.firstErr = s.rep.t[c].firstErr
		}
	}
	s.attempted = s.rep.count(nil)
	if limit == 0 {
		s.memRatio = float64(heapInuse()-base+e.d.rawBytes()) / float64(e.d.rawBytes())
	}
	s.m = st.main.Metrics()
	if limit == 0 && e.w.Durable {
		return s, e.restartDurable(s, st, streams[0], cfg, dir)
	}
	st.close()
	return s, nil
}

// coldStart is how long a fresh in-memory store took to give its first
// answer: set-up plus client 0's first operation. Nothing of such a store
// survives a restart, so this is what a restart costs.
func (s *session) coldStart() time.Duration {
	return s.setup + time.Duration(s.rep.t[0].end[0])
}

// firstRead is the operation a durable restart is timed up to: the
// sequence's first read, answered on the state the whole sequence left.
func firstRead(seq []op) *op {
	for i := range seq {
		if c := seq[i].kind.class(); c != cWrite && c != cAdmin {
			return &seq[i]
		}
	}
	return &seq[0]
}

// restartDurable copies the data directory while the store is still open and
// opens the copy (a crash: the WAL tail is replayed), then closes the store
// and opens it again (clean). After each, every value a write named must have
// the multiplicity the shadow says.
func (e *env) restartDurable(s *session, st *storeRung, seq []op, cfg holistic.Config, dir string) error {
	q := firstRead(seq)
	sh := e.o.finalShadow(seq)
	want := e.o.expect(q, sh)
	expected := sh.expected()

	reopenAndCheck := func(path string, took *time.Duration) (*holistic.Metrics, error) {
		t0 := time.Now()
		re, err := holistic.OpenStore(path, cfg)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		defer re.Close()
		r := &storeRung{d: e.d, main: re, durable: true}
		got, err := r.exec(q)
		*took = time.Since(t0)
		s.attempted++
		if err != nil || got != want {
			s.failed++
		}
		for key, n := range expected {
			v := key[1]
			got, err := re.CountRange(e.d.names[key[0]], v, v+1)
			s.attempted++
			if err != nil || int64(got) != n {
				s.failed++
			}
		}
		m := re.Metrics()
		return &m, nil
	}

	crash := dir + ".crash"
	if err := copyDir(dir, crash); err != nil {
		st.close()
		return fmt.Errorf("crash copy: %w", err)
	}
	m, err := reopenAndCheck(crash, &s.recover)
	if err != nil {
		st.close()
		return err
	}
	s.replayed = m.Recovery.ReplayedRecords

	st.close()
	if m, err = reopenAndCheck(dir, &s.reopen); err != nil {
		return err
	}
	s.restored = m.Recovery.RestoredIndexes
	s.diskBytes, err = dirBytes(dir)
	return err
}

// copyDir makes dst the crash image of the data directory src. Snapshot
// files (column segments, adaptive state) are immutable once their manifest
// names them and a recovering store only ever adds generations, so they are
// hard-linked, which spares a session 100-200 MB of disk traffic that has
// nothing to do with recovery; the WAL, manifests and markers — what a
// recovery may touch — are copied.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		from, to := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		if strings.HasPrefix(ent.Name(), "seg-") || strings.HasPrefix(ent.Name(), "state-") {
			err = os.Link(from, to)
		} else {
			err = copyFile(from, to)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = io.Copy(out, in)
	return err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

package cpu

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestLoadAccountant(t *testing.T) {
	a := NewLoadAccountant(8)
	if a.Contexts() != 8 {
		t.Errorf("Contexts() = %d, want 8", a.Contexts())
	}
	if a.IdleContexts() != 8 {
		t.Errorf("fresh IdleContexts() = %d, want 8", a.IdleContexts())
	}
	Acquire(3)
	if a.IdleContexts() != 5 || Busy() != 3 {
		t.Errorf("after Acquire(3): idle %d busy %d", a.IdleContexts(), Busy())
	}
	// Every accountant is a view of the one count.
	if b := NewLoadAccountant(4); b.IdleContexts() != 1 {
		t.Errorf("second accountant IdleContexts() = %d, want 1", b.IdleContexts())
	}
	Acquire(10) // oversubscribed
	if a.IdleContexts() != 0 {
		t.Errorf("oversubscribed IdleContexts() = %d, want 0", a.IdleContexts())
	}
	Release(10)
	Release(3)
	if a.IdleContexts() != 8 {
		t.Errorf("after releases IdleContexts() = %d, want 8", a.IdleContexts())
	}
}

func TestLoadAccountantMinimumOneContext(t *testing.T) {
	a := NewLoadAccountant(0)
	if a.Contexts() != 1 {
		t.Errorf("Contexts() = %d, want 1", a.Contexts())
	}
}

func TestLoadAccountantConcurrent(t *testing.T) {
	a := NewLoadAccountant(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Acquire(2)
				Release(2)
			}
		}()
	}
	wg.Wait()
	if Busy() != 0 || a.IdleContexts() != 16 {
		t.Errorf("Busy() = %d, IdleContexts() = %d after balanced acquire/release", Busy(), a.IdleContexts())
	}
}

func TestBusyCountAllocationFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Acquire(2); Release(2) }); n != 0 {
		t.Errorf("Acquire/Release allocate %.0f times per pair, want 0", n)
	}
}

const statSample1 = `cpu  100 0 100 800 0 0 0 0 0 0
cpu0 50 0 50 400 0 0 0 0 0 0
cpu1 50 0 50 400 0 0 0 0 0 0
intr 12345
ctxt 6789
`

// cpu0 went busy (idle advanced by only 10 of 110 jiffies => ~91% busy);
// cpu1 stayed idle (idle advanced 100 of 110 => ~9% busy).
const statSample2 = `cpu  210 0 200 910 0 0 0 0 0 0
cpu0 100 0 100 410 0 0 0 0 0 0
cpu1 60 0 50 500 0 0 0 0 0 0
intr 12345
ctxt 6789
`

func TestParseProcStat(t *testing.T) {
	ts, err := parseProcStat(strings.NewReader(statSample1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("parsed %d cpu lines, want 2", len(ts))
	}
	if ts[0].user != 50 || ts[0].idle != 400 {
		t.Errorf("cpu0 = %+v", ts[0])
	}
	if ts[0].total() != 500 {
		t.Errorf("cpu0 total = %d, want 500", ts[0].total())
	}
}

func TestParseProcStatMalformed(t *testing.T) {
	if _, err := parseProcStat(strings.NewReader("cpu0 1 2\n")); err == nil {
		t.Error("short line did not error")
	}
	if _, err := parseProcStat(strings.NewReader("cpu0 a b c d e\n")); err == nil {
		t.Error("non-numeric line did not error")
	}
	ts, err := parseProcStat(strings.NewReader("nothing here\n"))
	if err != nil || len(ts) != 0 {
		t.Errorf("unrelated content: %v, %v", ts, err)
	}
}

func TestProcStatMonitorWindow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stat")
	write := func(content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(statSample1)
	m := &ProcStatMonitor{Path: path, BusyThreshold: 0.5}
	if got := m.Contexts(); got != 2 {
		t.Fatalf("Contexts() = %d, want 2", got)
	}
	if got := m.IdleContexts(); got != 0 {
		t.Errorf("first sample IdleContexts() = %d, want 0 (baseline)", got)
	}
	write(statSample2)
	if got := m.IdleContexts(); got != 1 {
		t.Errorf("second sample IdleContexts() = %d, want 1 (cpu1 idle)", got)
	}
	// No progress at all => both contexts idle.
	if got := m.IdleContexts(); got != 2 {
		t.Errorf("unchanged counters IdleContexts() = %d, want 2", got)
	}
}

func TestProcStatMonitorMissingFile(t *testing.T) {
	m := &ProcStatMonitor{Path: "/nonexistent/stat"}
	if got := m.IdleContexts(); got != 0 {
		t.Errorf("missing file IdleContexts() = %d, want 0", got)
	}
	if got := m.Contexts(); got != 0 {
		t.Errorf("missing file Contexts() = %d, want 0", got)
	}
}

func TestProcStatLive(t *testing.T) {
	if _, err := os.Stat("/proc/stat"); err != nil {
		t.Skip("/proc/stat not available")
	}
	m := NewProcStat()
	if m.Contexts() < 1 {
		t.Error("live /proc/stat reported no contexts")
	}
	// Baseline call must not panic and returns 0.
	if got := m.IdleContexts(); got != 0 {
		t.Errorf("baseline IdleContexts() = %d, want 0", got)
	}
}

func TestFixed(t *testing.T) {
	f := Fixed{Total: 8, Idle: 3}
	if f.Contexts() != 8 || f.IdleContexts() != 3 {
		t.Errorf("Fixed = %d/%d", f.IdleContexts(), f.Contexts())
	}
}

// Package cpu provides the CPU-utilization signal that drives holistic
// indexing's tuning cycle (Section 4.2, Figure 2): "the holistic indexing
// thread continuously monitors the CPU load ... when n idle CPU cores are
// detected, n holistic worker threads are activated".
//
// The process keeps one count of busy contexts. engine.Executor.run
// counts the goroutine that enters it, and column.ForChunks — the only
// goroutine fan-out — counts the goroutines it runs for as long as they
// run. So every query's fan-out and every daemon's workers, which also
// run through ForChunks, are in the one count. It is one high while an
// executor call fans out: its caller, blocked in the fan-out's wait, is
// still counted, which errs toward the daemon yielding.
//
// The daemon consumes only the signal "n contexts are idle" (DESIGN.md
// §3). LoadAccountant derives it from the busy count, instantly and
// deterministically, so tuning cycles take milliseconds; ProcStatMonitor
// reads /proc/stat over the whole machine, as the paper does; Fixed pins
// it for the uXwY thread-distribution experiments.
package cpu

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// busy is the process-wide count of contexts running library work.
var busy atomic.Int64

// Acquire counts n more busy contexts.
//
//holistic:noalloc
func Acquire(n int) { busy.Add(int64(n)) }

// Release counts n busy contexts as done.
//
//holistic:noalloc
func Release(n int) { busy.Add(-int64(n)) }

// Busy returns the number of contexts currently counted busy.
func Busy() int { return int(busy.Load()) }

// Monitor reports how many hardware contexts are available in total and
// how many of them are currently idle.
type Monitor interface {
	// Contexts returns the total number of hardware contexts considered.
	Contexts() int
	// IdleContexts returns how many contexts are currently idle. The
	// holistic daemon activates one worker per idle context.
	IdleContexts() int
}

// LoadAccountant is the in-process Monitor: a budget of contexts, of
// which those the process-wide busy count does not hold are idle.
type LoadAccountant struct {
	contexts int
}

// NewLoadAccountant returns an accountant with the given context budget
// (typically the number of hardware contexts dedicated to the store).
func NewLoadAccountant(contexts int) *LoadAccountant {
	return &LoadAccountant{contexts: max(contexts, 1)}
}

// Contexts implements Monitor.
func (a *LoadAccountant) Contexts() int { return a.contexts }

// IdleContexts implements Monitor.
func (a *LoadAccountant) IdleContexts() int { return max(a.contexts-Busy(), 0) }

// times holds one CPU line of /proc/stat (all jiffy counters we use).
type times struct {
	user, nice, system, idle, iowait, irq, softirq, steal uint64
}

func (t times) total() uint64 {
	return t.user + t.nice + t.system + t.idle + t.iowait + t.irq + t.softirq + t.steal
}

func (t times) idleAll() uint64 { return t.idle + t.iowait }

// ProcStatMonitor derives idle contexts from kernel statistics, like the
// paper's MonetDB implementation. A context counts as idle when its busy
// fraction since the previous sample is below BusyThreshold.
type ProcStatMonitor struct {
	// Path of the stat file; defaults to /proc/stat.
	Path string
	// BusyThreshold is the utilization above which a context counts as
	// busy. Defaults to 0.5.
	BusyThreshold float64

	mu   sync.Mutex
	prev []times
}

// NewProcStat returns a monitor over /proc/stat.
func NewProcStat() *ProcStatMonitor {
	return &ProcStatMonitor{Path: "/proc/stat", BusyThreshold: 0.5}
}

// Contexts implements Monitor; it returns the number of per-CPU lines in
// the stat file (0 when unreadable).
func (m *ProcStatMonitor) Contexts() int {
	cur, err := m.read()
	if err != nil {
		return 0
	}
	return len(cur)
}

// IdleContexts implements Monitor. The first call establishes a baseline
// and reports 0 idle contexts; subsequent calls report contexts whose
// busy fraction over the sampling window stayed below the threshold.
func (m *ProcStatMonitor) IdleContexts() int {
	cur, err := m.read()
	if err != nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.prev
	m.prev = cur
	if len(prev) != len(cur) {
		return 0 // first sample or CPU hotplug; re-baseline
	}
	threshold := m.BusyThreshold
	if threshold <= 0 {
		threshold = 0.5
	}
	idle := 0
	for i := range cur {
		dTotal := cur[i].total() - prev[i].total()
		if dTotal == 0 {
			idle++
			continue
		}
		dIdle := cur[i].idleAll() - prev[i].idleAll()
		busy := 1 - float64(dIdle)/float64(dTotal)
		if busy < threshold {
			idle++
		}
	}
	return idle
}

func (m *ProcStatMonitor) read() ([]times, error) {
	path := m.Path
	if path == "" {
		path = "/proc/stat"
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// parseProcStat extracts the per-CPU lines ("cpu0", "cpu1", ...) from a
// /proc/stat stream, skipping the aggregate "cpu" line.
func parseProcStat(r io.Reader) ([]times, error) {
	var out []times
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "cpu") || strings.HasPrefix(line, "cpu ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("cpu: short stat line %q", line)
		}
		var t times
		dst := []*uint64{&t.user, &t.nice, &t.system, &t.idle, &t.iowait, &t.irq, &t.softirq, &t.steal}
		for i, p := range dst {
			if i+1 >= len(fields) {
				break // older kernels omit trailing counters
			}
			v, err := strconv.ParseUint(fields[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cpu: bad counter in %q: %v", line, err)
			}
			*p = v
		}
		out = append(out, t)
	}
	return out, sc.Err()
}

// Fixed is a Monitor that always reports the same idle count; benchmarks
// use it to pin worker parallelism to a chosen thread distribution (the
// uXwYxZ configurations of Figures 7, 11 and 17) whatever the busy count
// says.
type Fixed struct {
	Total, Idle int
}

// Contexts implements Monitor.
func (f Fixed) Contexts() int { return f.Total }

// IdleContexts implements Monitor.
func (f Fixed) IdleContexts() int { return f.Idle }

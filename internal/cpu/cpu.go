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
// deterministically, so tuning cycles take milliseconds; Fixed pins it
// for the uXwY thread-distribution experiments.
package cpu

import "sync/atomic"

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

// Monitor reports how many hardware contexts are currently idle.
type Monitor interface {
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

// IdleContexts implements Monitor.
func (a *LoadAccountant) IdleContexts() int { return max(a.contexts-Busy(), 0) }

// Fixed is a Monitor that always reports the same idle count; benchmarks
// use it to pin worker parallelism to a chosen thread distribution (the
// uXwYxZ configurations of Figures 7, 11 and 17) whatever the busy count
// says.
type Fixed struct {
	Idle int
}

// IdleContexts implements Monitor.
func (f Fixed) IdleContexts() int { return f.Idle }

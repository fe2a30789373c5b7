package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// reported is one metric value with the number of samples behind it.
type reported struct {
	value float64
	n     int
	note  string
}

// runResult is the outcome of one run of one workload, traced or not.
type runResult struct {
	workload  string
	sessions  int
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]reported
	notes     []string
}

func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// setErrorRate closes a run's accounting.
func (r *runResult) setErrorRate() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.metrics["error_rate"] = reported{value: rate, n: r.attempted}
}

const (
	earlyOps    = 100 // operations per client that early_s covers, and a head replays
	warmOps     = 64  // operations of the untimed warm-up
	extraSetups = 30  // set-ups timed beyond the heads' and sessions' own
	setupBudget = 800 * time.Millisecond
	minSessions = 3
	minHeads    = 4
	// coldStarts is how many times a run restarts an in-memory store — a
	// fresh store answering one operation — for recover_s and reopen_s each.
	coldStarts = 15
	// headShare of a run's budget goes to heads: fresh stores replaying only
	// their first earlyOps operations. A full session yields one sample of
	// early_s, of first_touch_ms and of the cold start, and the slower
	// workloads fit two or three sessions in a run; heads give those metrics
	// ten samples or more for the price of one session.
	headShare = 0.3
	// headSeq and coldSeq offset the sequences heads and cold starts replay
	// from the sessions'.
	headSeq = 1000
	coldSeq = 2000
)

// warmUp replays the head of session 0 on throwaway stores. The first
// allocation of a run's working set costs page faults a long-lived process
// pays once; without this the first session or two run up to 3x slower than
// the rest and the medians of short runs swing with them.
func (e *env) warmUp() error {
	_, err := e.runSession(0, warmOps, nil)
	return err
}

// sampleSetups times extra set-ups (and tear-downs, untimed) so setup_s is a
// median over more than a handful of samples. Like a session's own set-up,
// they start from a settled heap: whether NewStore's rings come from recycled
// spans or from fresh pages changes a sub-millisecond set-up severalfold.
func (e *env) sampleSetups() ([]time.Duration, error) {
	var out []time.Duration
	heapInuse()
	begin := time.Now()
	for i := 0; i < extraSetups && time.Since(begin) < setupBudget; i++ {
		dir := ""
		if e.w.Durable {
			dir = e.tmpDir(fmt.Sprintf("setup%d", i))
		}
		t0 := time.Now()
		st, err := openStores(e.w, e.d, e.w.config(e.seed), dir)
		took := time.Since(t0)
		if err != nil {
			return nil, err
		}
		st.close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		out = append(out, took)
	}
	return out, nil
}

// coldStarts restarts an in-memory store n times: a fresh store answering one
// operation. A durable workload restarts for real, at the end of its
// sessions, and takes none.
func (e *env) coldStarts(n int) ([]*session, error) {
	var out []*session
	for i := 0; !e.w.Durable && i < n; i++ {
		s, err := e.runSession(coldSeq+i, 1, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// runEndToEnd measures a workload for about `seconds`. Heads and sessions of
// fixed shape run back to back until the budget is spent; session metrics are
// medians over the sessions (and heads, where a head measures them too) and
// latency percentiles are pooled over the sessions.
func runEndToEnd(e *env, seconds float64) (*runResult, error) {
	phases := "phases:"
	mark := time.Now()
	lap := func(name string) {
		phases += fmt.Sprintf(" %s %.1f s,", name, time.Since(mark).Seconds())
		mark = time.Now()
	}
	if err := e.warmUp(); err != nil {
		return nil, err
	}
	lap("warm-up")
	setups, err := e.sampleSetups()
	if err != nil {
		return nil, err
	}
	lap("set-ups")
	budget := time.Duration(seconds * float64(time.Second))
	// repeat runs one(k) for k = 0, 1, … until the time is spent: it stops
	// when another round would end further past the budget than stopping
	// now falls short of it, but not before atLeast rounds.
	repeat := func(budget time.Duration, atLeast int, one func(k int) error) error {
		begin := time.Now()
		for k := 0; ; k++ {
			if err := one(k); err != nil {
				return err
			}
			spent := time.Since(begin)
			if k+1 >= atLeast && spent+spent/time.Duration(2*(k+1)) >= budget {
				return nil
			}
		}
	}
	var heads, ss []*session
	colds, err := e.coldStarts(2 * coldStarts)
	if err != nil {
		return nil, err
	}
	lap("cold starts")
	err = repeat(time.Duration(headShare*float64(budget)), minHeads, func(k int) error {
		s, err := e.runSession(headSeq+k, earlyOps, nil)
		heads = append(heads, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	lap("heads")
	err = repeat(time.Duration((1-headShare)*float64(budget)), minSessions, func(k int) error {
		s, err := e.runSession(k, 0, nil)
		ss = append(ss, s)
		return err
	})
	if err != nil {
		return nil, err
	}
	lap("sessions")
	res := &runResult{workload: e.w.Name, sessions: len(ss), metrics: make(map[string]reported)}
	for _, s := range slices.Concat(colds, heads, ss) {
		res.attempted += s.attempted
		res.failed += s.failed
		if res.firstErr == nil {
			res.firstErr = s.firstErr
		}
		setups = append(setups, s.setup)
	}
	sessionMetrics(e, colds, heads, ss, setups, res.metrics)
	res.setErrorRate()
	per := "session_s per session:"
	for _, s := range ss {
		per += fmt.Sprintf(" %.3f", s.rep.sum(nil).Seconds())
	}
	res.notes = append(res.notes, per, strings.TrimSuffix(phases, ","))
	return res, nil
}

// medianOf applies f to every session and takes the median.
func medianOf(ss []*session, f func(*session) float64) reported {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return reported{value: median(xs), n: len(xs)}
}

// pooled collects the sorted latencies (ns) of one operation class over all
// sessions and clients.
func pooled(ss []*session, cl opClass) []int64 {
	var out []int64
	for _, s := range ss {
		out = append(out, s.rep.lats(ofClass(cl))...)
	}
	slices.Sort(out)
	return out
}

// latencyAt reports the want-th percentile of a pooled sample in µs, stepping
// down to the highest percentile that has ten samples beyond it.
func latencyAt(sorted []int64, want float64) reported {
	if len(sorted) == 0 {
		return reported{}
	}
	p := tailPercentile(len(sorted), want)
	r := reported{value: float64(percentile(sorted, p)) / 1e3, n: len(sorted)}
	if p != want {
		r.note = fmt.Sprintf("reported at p%g: fewer than 10 samples lie beyond p%g", p, want)
	}
	return r
}

// firstTouch is what reaching an attribute for the first time cost in a
// replay on fresh stores: the summed latency (ns) of the operations that were
// the first to touch some attribute, per attribute touched. A mean, because
// on the mixed workloads first touches are of several kinds (a crack, a group
// key's admission, a join key's) and a median would flip between them.
func firstTouch(d *dataset, rep *replayResult) float64 {
	type at struct{ client, i int }
	first := make(map[int]at) // attribute -> the operation that touched it first
	for c, seq := range rep.streams {
		t := rep.t[c]
		for i := range seq {
			if t.skipped[i] {
				continue
			}
			for _, a := range seq[i].attrs(d) {
				if f, ok := first[a]; !ok || t.start[i] < rep.t[f.client].start[f.i] {
					first[a] = at{c, i}
				}
			}
		}
	}
	if len(first) == 0 {
		return 0
	}
	ops := make(map[at]bool)
	var ns int64
	for _, f := range first {
		if !ops[f] {
			ops[f] = true
			ns += rep.t[f.client].lat(f.i)
		}
	}
	return float64(ns) / float64(len(first))
}

// sessionMetrics fills in every end-to-end metric, bounded or demoted, from
// the cold starts, heads and sessions of a run.
func sessionMetrics(e *env, colds, heads, ss []*session, setups []time.Duration, m map[string]reported) {
	xs := make([]float64, len(setups))
	for i, d := range setups {
		xs[i] = d.Seconds()
	}
	m["setup_s"] = reported{value: median(xs), n: len(xs)}
	fresh := slices.Concat(heads, ss) // each began on fresh stores and ran earlyOps operations or more
	m["early_s"] = medianOf(fresh, func(s *session) float64 {
		return s.rep.sum(func(_ *op, i int) bool { return i < earlyOps }).Seconds()
	})
	m["first_touch_ms"] = medianOf(fresh, func(s *session) float64 { return firstTouch(e.d, s.rep) / 1e6 })
	m["session_s"] = medianOf(ss, func(s *session) float64 { return s.rep.sum(nil).Seconds() })
	m["qps"] = medianOf(ss, func(s *session) float64 {
		return float64(s.rep.count(nil)) / (s.rep.wall - s.rep.thought).Seconds()
	})
	m["mem_ratio"] = medianOf(ss, func(s *session) float64 { return s.memRatio })

	for _, c := range []struct {
		class    opClass
		p50, p99 string
	}{{cRead, "query_p50_us", "query_p99_us"}, {cGrouped, "grouped_p50_us", ""}, {cJoin, "join_p50_us", ""}, {cWrite, "write_p50_us", "write_p99_us"}} {
		lat := pooled(ss, c.class)
		if len(lat) == 0 {
			continue // the workload has no such operation
		}
		m[c.p50] = latencyAt(lat, 50)
		if c.p99 != "" {
			m[c.p99] = latencyAt(lat, 99)
		}
	}

	if e.w.Durable {
		m["recover_s"] = medianOf(ss, func(s *session) float64 { return s.recover.Seconds() })
		m["reopen_s"] = medianOf(ss, func(s *session) float64 { return s.reopen.Seconds() })
		return
	}
	// A restart of an in-memory store is a cold start, crash or not; the
	// two metrics take alternate ones, so that they stay separate
	// measurements.
	var even, odd []*session
	for i, s := range colds {
		if i%2 == 0 {
			even = append(even, s)
		} else {
			odd = append(odd, s)
		}
	}
	cold := func(s *session) float64 { return s.coldStart().Seconds() }
	m["recover_s"], m["reopen_s"] = medianOf(even, cold), medianOf(odd, cold)
}

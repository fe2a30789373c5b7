package main

import (
	"errors"
	"sync"
	"time"
)

// timings is what one client's replay of its sequence leaves behind: per
// operation the start and end offsets from the replay's start (ns), the
// answer, and whether the call failed. skipped operations (errSkip) keep a
// zero-length interval and count for nothing.
type timings struct {
	start, end []int64
	ans        []int64
	failed     []bool
	skipped    []bool
	firstErr   error
}

func newTimings(n int) *timings {
	return &timings{
		start: make([]int64, n), end: make([]int64, n), ans: make([]int64, n),
		failed: make([]bool, n), skipped: make([]bool, n),
	}
}

func (t *timings) lat(i int) int64 { return t.end[i] - t.start[i] }

// replayResult is one replay of a session's sequences against one rung.
type replayResult struct {
	streams [][]op
	t       []*timings
	wall    time.Duration // first operation's start to last operation's end
	thought time.Duration // mean time a client spent in think-time sleeps
}

// lats lists the latencies (ns) of the executed operations keep accepts
// (nil: all), client by client.
func (r *replayResult) lats(keep func(o *op, i int) bool) []int64 {
	var out []int64
	for c, seq := range r.streams {
		for i := range seq {
			if !r.t[c].skipped[i] && (keep == nil || keep(&seq[i], i)) {
				out = append(out, r.t[c].lat(i))
			}
		}
	}
	return out
}

// sum adds those latencies up.
func (r *replayResult) sum(keep func(o *op, i int) bool) time.Duration {
	var ns int64
	for _, l := range r.lats(keep) {
		ns += l
	}
	return time.Duration(ns)
}

// count counts those operations.
func (r *replayResult) count(keep func(o *op, i int) bool) int { return len(r.lats(keep)) }

func ofClass(cl opClass) func(*op, int) bool {
	return func(o *op, _ int) bool { return o.kind.class() == cl }
}

// replay runs every client's sequence against the rung, closed loop: a client
// sends its next operation when the previous one has returned, after the
// think time. With a recorder (traced runs), a span is kept around every call
// as well.
func replay(r rung, streams [][]op, think time.Duration, rec *rungRecorder) *replayResult {
	res := &replayResult{streams: streams, t: make([]*timings, len(streams))}
	thought := make([]time.Duration, len(streams))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c, seq := range streams {
		res.t[c] = newTimings(len(seq))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := res.t[c]
			for i := range seq {
				if think > 0 && i > 0 {
					s := time.Now()
					time.Sleep(think)
					thought[c] += time.Since(s)
				}
				start := time.Since(t0)
				ans, err := r.exec(&seq[i])
				end := time.Since(t0)
				t.start[i], t.end[i], t.ans[i] = int64(start), int64(end), ans
				switch {
				case errors.Is(err, errSkip):
					t.skipped[i] = true
					t.end[i] = t.start[i]
				case err != nil:
					t.failed[i] = true
					if t.firstErr == nil {
						t.firstErr = err
					}
				}
				if !t.skipped[i] {
					rec.span(c, i, &seq[i], int64(start), int64(end))
				}
			}
		}()
	}
	wg.Wait()
	for _, d := range thought {
		res.thought += d / time.Duration(len(streams))
	}
	var first, last int64 = -1, 0
	for _, t := range res.t {
		if len(t.start) == 0 {
			continue
		}
		if first < 0 || t.start[0] < first {
			first = t.start[0]
		}
		if e := t.end[len(t.end)-1]; e > last {
			last = e
		}
	}
	if first >= 0 {
		res.wall = time.Duration(last - first)
	}
	rec.end(int64(res.wall))
	return res
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one call into one layer. The ladder replays the same session at
// every rung, so a query's span at one rung is caused by — its Parent is —
// the same query's span one rung further out; a rung's self time is its span
// minus that child. Spans of one query share QueryID (and Client).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: none
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Client   int    `json:"client"`
	QueryID  int    `json:"query_id"` // position in the client's sequence; -1 for the rung's own span
	Op       string `json:"op"`
	StartNS  int64  `json:"start_ns"` // offset from the rung's replay start
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	spans []span
}

// rungRecorder records the spans of one rung's replay. Clients write disjoint
// slots of a preallocated block, so recording takes no lock.
type rungRecorder struct {
	tr       *tracer
	workload string
	layer    string
	base     int   // id of the rung's own span; operation spans follow it
	offset   []int // offset[c]: first slot of client c's operations
	parent   *rungRecorder
}

// rung opens the recorder of one rung replaying streams; parent is the rung
// one step further out (nil for the top rung). A nil tracer gives a nil
// recorder, whose methods do nothing.
func (tr *tracer) rung(workload, layer string, streams [][]op, parent *rungRecorder) *rungRecorder {
	if tr == nil {
		return nil
	}
	rec := &rungRecorder{tr: tr, workload: workload, layer: layer, base: len(tr.spans), parent: parent}
	n := 1
	for _, s := range streams {
		rec.offset = append(rec.offset, n)
		n += len(s)
	}
	tr.spans = append(tr.spans, make([]span, n)...)
	return rec
}

func (rec *rungRecorder) span(client, i int, o *op, start, end int64) {
	if rec == nil {
		return
	}
	slot := rec.offset[client] + i
	parent := rec.base
	if rec.parent != nil {
		parent = rec.parent.base + slot
	}
	rec.tr.spans[rec.base+slot] = span{
		ID: rec.base + slot, Parent: parent, Workload: rec.workload, Layer: rec.layer,
		Client: client, QueryID: i, Op: o.kind.String(), StartNS: start, EndNS: end,
	}
}

// end closes the rung's own span, the parent of a top rung's operations.
func (rec *rungRecorder) end(wallNS int64) {
	if rec == nil {
		return
	}
	rec.tr.spans[rec.base] = span{
		ID: rec.base, Parent: -1, Workload: rec.workload, Layer: rec.layer,
		Client: -1, QueryID: -1, Op: "replay", EndNS: wallNS,
	}
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if tr.spans[i].Layer == "" {
			continue // slot of a skipped operation
		}
		if err := enc.Encode(&tr.spans[i]); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return w.Flush()
}

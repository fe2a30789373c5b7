package bench

import (
	"sync"
	"testing"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/workload"
)

// clientTable builds a relation of attrs uniform columns and returns it
// with the columns' values.
func clientTable(attrs, rows int, domain int64) (*engine.Table, [][]int64) {
	tbl := buildTable(Params{Attrs: attrs, ColumnSize: rows, Domain: domain, Seed: 100})
	bases := make([][]int64, attrs)
	for a := range bases {
		bases[a] = tbl.Column(attrName(a)).Values()
	}
	return tbl, bases
}

func TestRunQueriesSingleAndMultiClient(t *testing.T) {
	const domain = 1 << 16
	tbl, bases := clientTable(2, 20_000, domain)
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 100, Domain: domain, Attrs: 2, Seed: 11,
	})
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = column.CountRange(bases[q.Attr], q.Lo, q.Hi)
	}
	for _, clients := range []int{1, 2, 4} {
		e := engine.NewAdaptiveExecutor(tbl, cracking.Config{}, "")
		got, err := runQueries(e.Count, qs, attrName, clients)
		if err != nil {
			t.Fatalf("clients=%d: %v", clients, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("clients=%d query %d: got %d, want %d", clients, i, got[i], want[i])
			}
		}
		e.Close()
	}
}

func TestRunQueriesPropagatesError(t *testing.T) {
	tbl, _ := clientTable(1, 100, 1000)
	e := engine.NewScanExecutor(tbl, 1)
	qs := []workload.Query{{Attr: 5, Lo: 0, Hi: 1}}
	if _, err := runQueries(e.Count, qs, attrName, 1); err == nil {
		t.Error("single-client error not propagated")
	}
	if _, err := runQueries(e.Count, qs, attrName, 4); err == nil {
		t.Error("multi-client error not propagated")
	}
}

// rangeKey names one range query.
type rangeKey struct {
	attr   string
	lo, hi int64
}

// holdUntilEarlyDone delays the Count on attribute hold until every one
// of the early queries has been answered.
type holdUntilEarlyDone struct {
	*engine.AdaptiveExecutor
	hold  string
	early sync.Map // rangeKey of the queries not yet answered
	left  sync.WaitGroup
}

func (h *holdUntilEarlyDone) Count(attr string, lo, hi int64) (int, error) {
	if attr == h.hold {
		h.left.Wait()
	}
	n, err := h.AdaptiveExecutor.Count(attr, lo, hi)
	if _, ok := h.early.LoadAndDelete(rangeKey{attr, lo, hi}); ok {
		h.left.Done()
	}
	return n, err
}

// TestRunQueriesMultiClientMidstreamError plants a failing query in the
// middle of a long sequence: the error must surface, the producer must
// not deadlock, and queries answered before the failure stay correct.
func TestRunQueriesMultiClientMidstreamError(t *testing.T) {
	const domain = 1 << 16
	tbl, bases := clientTable(2, 10_000, domain)
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: 200, Domain: domain, Attrs: 2, Seed: 23,
	})
	qs[120].Attr = 7 // unknown attribute mid-stream
	// The first queries are handed to clients long before the poisoned
	// one, but a client that has taken a query and not yet started it
	// skips it once the failure is flagged; hold the failure back until
	// the prefix under test has been answered, so the check below is about
	// results surviving the error, not about who was scheduled first.
	e := &holdUntilEarlyDone{
		AdaptiveExecutor: engine.NewAdaptiveExecutor(tbl, cracking.Config{}, ""),
		hold:             attrName(7),
	}
	defer e.Close()
	for _, q := range qs[:8] {
		if _, dup := e.early.LoadOrStore(rangeKey{attrName(q.Attr), q.Lo, q.Hi}, true); !dup {
			e.left.Add(1)
		}
	}
	got, err := runQueries(e.Count, qs, attrName, 4)
	if err == nil {
		t.Fatal("mid-stream error not propagated")
	}
	// An error later in the stream must not zero or corrupt results
	// already computed.
	completed := 0
	for i := 0; i < 8; i++ {
		want := column.CountRange(bases[qs[i].Attr], qs[i].Lo, qs[i].Hi)
		if got[i] != want {
			t.Fatalf("query %d: got %d, want %d", i, got[i], want)
		}
		if got[i] > 0 {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no early query produced a non-zero count; prefix check is vacuous")
	}
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func fillTrace(tr *QueryTrace) {
	tr.Seq, tr.Kind, tr.Mode, tr.Rows = 7, OpCount.String(), "holistic", 1000
	tr.Rep, tr.RepReason = "bitmap", "policy auto: estimated selectivity above crossover"
	tr.BeginSide("")
	tr.AddConjunct("a", 10, 20, 120, true)
	tr.AddConjunct("b", 0, 500, 480, false)
	tr.SetCum(0, 118)
	tr.SetCum(1, 60)
	tr.StageNanos("drive", time.Millisecond.Nanoseconds())
	tr.SetStat("key_span", 42)
	tr.Scanned, tr.Emitted, tr.Result, tr.TotalNanos = 118, 60, 60, 123456
}

func TestTracePoolReset(t *testing.T) {
	tr := GetTrace()
	fillTrace(tr)
	PutTrace(tr)
	got := GetTrace()
	defer PutTrace(got)
	// The pool may hand back a different instance; whatever comes out
	// must be fully reset.
	if got.Seq != 0 || got.Kind != "" || len(got.Conjuncts) != 0 || len(got.Stages) != 0 ||
		len(got.Stat) != 0 || got.Scanned != 0 || got.Result != 0 || got.Err != "" {
		t.Fatalf("pooled trace not reset: %+v", got)
	}
	if got.Stat == nil {
		t.Fatal("pooled trace lost its stat map")
	}
}

func TestTraceSideScoping(t *testing.T) {
	tr := NewTrace()
	tr.BeginSide("left")
	tr.AddConjunct("l0", 0, 10, 5, true)
	tr.AddConjunct("l1", 0, 99, 50, false)
	tr.SetCum(0, 4)
	tr.BeginSide("right")
	tr.AddConjunct("r0", 5, 6, 1, true)
	tr.SetCum(0, 2)
	if len(tr.Conjuncts) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(tr.Conjuncts))
	}
	if tr.Conjuncts[0].Side != "left" || tr.Conjuncts[0].CumRows != 4 {
		t.Fatalf("left conjunct 0 wrong: %+v", tr.Conjuncts[0])
	}
	if tr.Conjuncts[2].Side != "right" || tr.Conjuncts[2].CumRows != 2 {
		t.Fatalf("right conjunct wrong: %+v", tr.Conjuncts[2])
	}
	// Out-of-range SetCum must be a no-op, not a panic.
	tr.SetCum(99, 1)
}

func TestTraceString(t *testing.T) {
	tr := NewTrace()
	fillTrace(tr)
	tr.Conjuncts[0].ActualRows = 117
	s := tr.String()
	for _, want := range []string{
		"count query", "holistic", "representation: bitmap",
		"conjunct a in [10,20)", "driving", "actual 117",
		"surviving 60", "stat key_span = 42.000", "result 60",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				tr := GetTrace()
				fillTrace(tr)
				tr.Seq = uint64(i*100 + j)
				sink.Emit(tr)
				PutTrace(tr)
			}
		}(i)
	}
	wg.Wait()
	// Emit buffers; the stream is complete only after a flush.
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		for _, key := range []string{"seq", "kind", "mode", "rows", "conjuncts", "result", "total_ns"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing %q: %v", lines, key, m)
			}
		}
		if _, ok := m["curBase"]; ok {
			t.Fatal("unexported bookkeeping leaked into JSON")
		}
	}
	if lines != 100 {
		t.Fatalf("got %d JSONL lines, want 100", lines)
	}
}

// nopWriteCloser adapts a bytes.Buffer into a rotation target.
type nopWriteCloser struct {
	*bytes.Buffer
	closed *bool
}

func (w nopWriteCloser) Close() error {
	if w.closed != nil {
		*w.closed = true
	}
	return nil
}

func TestJSONLSinkRotation(t *testing.T) {
	var first, second bytes.Buffer
	firstClosed := false
	sink := NewJSONLSinkOptions(nopWriteCloser{&first, &firstClosed}, SinkOptions{
		MaxBytes: 1, // every line overflows: rotate after each Emit
		Rotate: func() (io.WriteCloser, error) {
			return nopWriteCloser{&second, nil}, nil
		},
	})
	tr := GetTrace()
	fillTrace(tr)
	sink.Emit(tr)
	sink.Emit(tr)
	PutTrace(tr)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	st := sink.Snapshot()
	if st.Rotations < 1 {
		t.Fatalf("rotations = %d, want >= 1", st.Rotations)
	}
	if st.Lines != 2 {
		t.Fatalf("lines = %d, want 2", st.Lines)
	}
	if !firstClosed {
		t.Fatal("rotation did not close the previous target")
	}
	if first.Len() == 0 || second.Len() == 0 {
		t.Fatalf("rotation did not split the stream: first %d bytes, second %d", first.Len(), second.Len())
	}
	for i, buf := range []*bytes.Buffer{&first, &second} {
		var m map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &m); err != nil {
			t.Fatalf("target %d does not hold one complete JSON line: %v", i, err)
		}
	}
}

// failingWriter errors every write, simulating a full or broken disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLSinkWriteErrorsSurface(t *testing.T) {
	sink := NewJSONLSink(failingWriter{})
	tr := GetTrace()
	fillTrace(tr)
	sink.Emit(tr)
	PutTrace(tr)
	if err := sink.Flush(); err == nil {
		t.Fatal("Flush on a failing writer returned nil")
	}
	if st := sink.Snapshot(); st.Errors < 1 {
		t.Fatalf("write errors = %d, want >= 1", st.Errors)
	}
	// A failing stream must never panic or fail queries: Emit again.
	tr = GetTrace()
	fillTrace(tr)
	sink.Emit(tr)
	PutTrace(tr)
	if err := sink.Close(); err == nil {
		t.Fatal("Close on a failing writer returned nil")
	}
}

func TestTraceMutatorsAllocFree(t *testing.T) {
	tr := NewTrace()
	fillTrace(tr) // pre-grow slices and map
	if a := testing.AllocsPerRun(200, func() {
		tr.Reset()
		tr.BeginSide("left")
		tr.AddConjunct("a", 10, 20, 120, true)
		tr.SetCum(0, 118)
		tr.StageNanos("drive", 1000)
		tr.SetStat("key_span", 42)
	}); a > 0 {
		t.Fatalf("trace mutators allocate %.1f times per op, want 0", a)
	}
}

// TestTraceRecordingNilSafe: an untraced query calls the recording
// methods on a nil trace; every one of them is a no-op there.
func TestTraceRecordingNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.SetRelation("scan", 10)
	tr.SetRowsRight(20)
	tr.BeginSide("left")
	tr.AddConjunct("a", 10, 20, 120, true)
	tr.SetCum(0, 118)
	tr.SetRep(RepBitmap, "because")
	tr.SetStrategy(StratJoinHash, "because")
	tr.SetScanned(118)
	tr.SetEmitted(60)
	tr.StageNanos("drive", 1000)
	tr.SetStat("key_span", 42)

	// On a live trace the setters fill the fields the report renders.
	tr = NewTrace()
	tr.SetRelation("scan", 10)
	tr.SetRep(RepPosList, "r1")
	tr.SetStrategy(StratJoinMerge, "r2")
	tr.SetScanned(3)
	tr.SetEmitted(2)
	if tr.Mode != "scan" || tr.Rows != 10 || tr.Rep != "poslist" || tr.RepReason != "r1" ||
		tr.Strategy != "merge" || tr.StrategyReason != "r2" || tr.Scanned != 3 || tr.Emitted != 2 {
		t.Fatalf("setters left %+v", tr)
	}
}

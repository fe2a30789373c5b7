package cracking

import (
	"sync"
	"testing"
)

func TestPieceBounds(t *testing.T) {
	base := randVals(10_000, 81, 1000)
	c := New("a", base, Config{})
	pieces := c.PieceBounds()
	if len(pieces) != 1 {
		t.Fatalf("fresh column has %d pieces", len(pieces))
	}
	if pieces[0].Start != 0 || pieces[0].End != 10_000 {
		t.Fatalf("initial piece spans [%d,%d)", pieces[0].Start, pieces[0].End)
	}
	c.CrackAt(250)
	c.CrackAt(750)
	pieces = c.PieceBounds()
	if len(pieces) != 3 {
		t.Fatalf("got %d pieces after 2 cracks, want 3", len(pieces))
	}
	// Spans must tile the column and be key-ordered.
	for i := 1; i < len(pieces); i++ {
		if pieces[i].Start != pieces[i-1].End {
			t.Fatalf("pieces %d/%d do not tile: %+v %+v", i-1, i, pieces[i-1], pieces[i])
		}
		if pieces[i].LoKey <= pieces[i-1].LoKey {
			t.Fatal("piece keys not ascending")
		}
		if pieces[i-1].HiKey != pieces[i].LoKey {
			t.Fatal("piece key spans do not tile")
		}
	}
	total := 0
	for _, p := range pieces {
		total += p.Size()
	}
	if total != 10_000 {
		t.Fatalf("piece sizes sum to %d", total)
	}
}

// TestMergeRacesTelemetryAccessors is the regression test for the Ripple
// race: update merges mutate slice headers and piece boundaries, and must
// be visible as atomic to the mu-guarded statistics accessors that the
// daemon and strategies read concurrently (caught by -race).
func TestMergeRacesTelemetryAccessors(t *testing.T) {
	base := randVals(20_000, 82, 1000)
	c := New("a", base, Config{})
	for _, v := range []int64{100, 300, 500, 700, 900} {
		c.CrackAt(v)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c.AvgPieceSize() <= 0 {
					t.Error("AvgPieceSize went non-positive")
					return
				}
				_ = c.Len()
				_ = c.Pieces()
				_, _ = c.Domain()
				_ = c.SizeBytes()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		c.MergeInsert(int64(i%1000), 0)
		if i%5 == 0 {
			c.MergeDelete(int64(i % 1000))
		}
	}
	close(stop)
	readers.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStochasticWithRowsKeepsLockstep(t *testing.T) {
	base := randVals(50_000, 83, 1<<20)
	c := New("a", base, Config{Stochastic: true, Seed: 9})
	for q := 0; q < 50; q++ {
		lo := int64(q * 20000 % (1 << 20))
		_, rows := c.SelectRows(lo, lo+10000)
		for _, r := range rows {
			v := base[r]
			if v < lo || v >= lo+10000 {
				t.Fatalf("row %d maps to out-of-range base value %d", r, v)
			}
		}
	}
	snap := c.Snapshot()
	srows := c.SnapshotRows()
	for i, r := range srows {
		if base[r] != snap[i] {
			t.Fatalf("rows out of lockstep at %d after stochastic cracking", i)
		}
	}
}

package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/holistic"
	"holistic/internal/obs"
)

// TestConcurrentFirstTouchBuildsOnce races M clients over N cold
// attributes: the per-attribute build latch must build each cracker
// exactly once (the losers of a race wait and crack the winner's column),
// and every answer — the fused build's own first one included — must
// equal the scan oracle. Holistic mode adds the daemon and AddPotential
// racing the same latch.
func TestConcurrentFirstTouchBuildsOnce(t *testing.T) {
	const attrs, clients, queries, rows, domain = 6, 8, 40, 30_000, 1 << 20
	for _, mode := range []string{"adaptive", "stochastic", "holistic"} {
		t.Run(mode, func(t *testing.T) {
			tbl, bases := testTable(t, attrs, rows, domain)
			var met obs.ExecMetrics
			var exec Executor
			var potential func(string) error
			switch mode {
			case "holistic":
				h := NewHolisticExecutor(tbl, HolisticConfig{
					Cracking: cracking.Config{WithRows: true},
					Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 16, Seed: 5},
					L1Values: 256,
					Contexts: 2,
				})
				h.SetExecMetrics(&met)
				exec, potential = h, h.AddPotential
			default:
				a := NewAdaptiveExecutor(tbl, cracking.Config{WithRows: true, Stochastic: mode == "stochastic", ParallelWorkers: 2, MinParallelPiece: 1024}, "")
				a.SetExecMetrics(&met)
				exec = a
			}
			defer exec.Close()

			start := make(chan struct{})
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(cl)))
					<-start
					for q := 0; q < queries; q++ {
						a := (cl + q) % attrs
						lo := rng.Int63n(domain)
						hi := lo + rng.Int63n(domain-lo) + 1
						if potential != nil && q%7 == 0 {
							if err := potential(attrName((a + 1) % attrs)); err != nil {
								t.Error(err)
							}
						}
						var got int
						var err error
						if q%2 == 0 {
							got, err = exec.Count(attrName(a), lo, hi)
						} else {
							var sel []uint32
							sel, err = exec.SelectRows(attrName(a), lo, hi)
							got = len(sel)
							for _, r := range sel {
								if v := bases[a][r]; v < lo || v >= hi {
									err = fmt.Errorf("row %d holds %d, outside [%d,%d)", r, v, lo, hi)
								}
							}
						}
						if want := column.CountRange(bases[a], lo, hi); err != nil || got != want {
							t.Errorf("client %d query %d on %s [%d,%d): got %d, %v; want %d", cl, q, attrName(a), lo, hi, got, err, want)
							return
						}
					}
				}(cl)
			}
			close(start)
			wg.Wait()

			builds := met.CrackerBuilds.Load()
			if mode != "holistic" && builds != attrs {
				t.Errorf("CrackerBuilds = %d, want %d (one per attribute)", builds, attrs)
			}
			// AddPotential builds are not counted as first touches, so under
			// holistic the counter may fall short of attrs — never exceed it.
			if builds > attrs {
				t.Errorf("CrackerBuilds = %d for %d attributes: a cracker was built twice", builds, attrs)
			}
			for a := 0; a < attrs; a++ {
				c := exec.(interface {
					CrackerIfExists(string) *cracking.Column
				}).CrackerIfExists(attrName(a))
				if c == nil {
					t.Fatalf("%s has no cracker", attrName(a))
				}
				if err := c.CheckInvariants(); err != nil {
					t.Errorf("%s: %v", attrName(a), err)
				}
			}
		})
	}
}

// TestFirstTouchDoesNotHoldExecutorLock is the bug the build latch fixes,
// stated directly: while one attribute's build is in flight, the
// executor's lock is free — CrackerIfExists and another attribute's first
// touch complete.
func TestFirstTouchDoesNotHoldExecutorLock(t *testing.T) {
	tbl, _ := testTable(t, 2, 1000, 1<<16)
	e := NewAdaptiveExecutor(tbl, cracking.Config{}, "")
	defer e.Close()

	// Stand in for a build of A in flight.
	inFlight := make(chan struct{})
	e.mu.Lock()
	e.building["A"] = inFlight
	e.mu.Unlock()

	if e.CrackerIfExists("A") != nil {
		t.Fatal("unfinished build is visible")
	}
	if _, err := e.Count("B", 10, 20); err != nil {
		t.Fatal(err)
	}
	waiter := make(chan *cracking.Column)
	go func() {
		c, _, _ := e.Cracker("A")
		waiter <- c
	}()
	select {
	case <-waiter:
		t.Fatal("second first touch of A did not wait for the build in flight")
	case <-time.After(20 * time.Millisecond):
	}
	// The build "fails" (finishes without publishing): the waiter takes over.
	e.mu.Lock()
	delete(e.building, "A")
	e.mu.Unlock()
	close(inFlight)
	if c := <-waiter; c == nil || c != e.CrackerIfExists("A") {
		t.Fatal("waiter did not end up with the published cracker")
	}
}

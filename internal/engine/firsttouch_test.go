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
	"holistic/internal/obs/observer"
)

// sevenModes names the modes the first-touch tests run under; modeExecutor
// builds each over tbl. maxPaths is how many access paths one attribute
// may legitimately see in its life: one, plus the row-id upgrade of a
// sorted copy, plus online indexing's scan path before the epoch ends.
var sevenModes = []struct {
	name     string
	maxPaths int
}{
	{"scan", 1}, {"offline", 2}, {"online", 3}, {"adaptive", 1}, {"stochastic", 1}, {"ccgi", 1}, {"holistic", 1},
}

func modeExecutor(tbl *Table, mode string) *Executor {
	crack := cracking.Config{Stochastic: mode == "stochastic", ParallelWorkers: 2, MinParallelPiece: 1024}
	switch mode {
	case "scan":
		return NewScanExecutor(tbl, 2)
	case "offline":
		return NewOfflineExecutor(tbl, 2)
	case "online":
		return NewOnlineExecutor(tbl, 2, 25)
	case "ccgi":
		return NewCCGIExecutor(tbl, 2, 8, cracking.Config{})
	case "holistic":
		return NewHolisticExecutor(tbl, HolisticConfig{
			Cracking: cracking.Config{},
			Daemon:   holistic.Config{Interval: time.Millisecond, Refinements: 16, Seed: 5},
			L1Values: 256,
			Contexts: 2,
		})
	}
	return NewAdaptiveExecutor(tbl, crack, "")
}

// TestConcurrentFirstTouchBuildsOnce races M clients over N cold
// attributes in every mode: the per-attribute build latch must build each
// access path exactly once (the losers of a race wait and use the
// winner's), and every answer — a fused cracker build's own first one
// included — must equal the scan oracle. Holistic mode adds the daemon
// and AddPotential racing the same latch; online indexing crosses its
// epoch under the same race.
func TestConcurrentFirstTouchBuildsOnce(t *testing.T) {
	const attrs, clients, queries, rows, domain = 6, 8, 40, 30_000, 1 << 20
	for _, mode := range sevenModes {
		t.Run(mode.name, func(t *testing.T) {
			tbl, bases := testTable(t, attrs, rows, domain)
			ob := observer.New(observer.Config{FlightEvents: -1})
			met := &ob.Exec
			exec := modeExecutor(tbl, mode.name)
			exec.SetObserver(ob)
			defer exec.Close()

			var seen [attrs]sync.Map // the distinct access paths each attribute had
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
						if exec.Daemon() != nil && q%7 == 0 {
							if err := exec.AddPotential(attrName((a + 1) % attrs)); err != nil {
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
						seen[a].Store(exec.lookup(attrName(a)), true)
						if want := column.CountRange(bases[a], lo, hi); err != nil || got != want {
							t.Errorf("client %d query %d on %s [%d,%d): got %d, %v; want %d", cl, q, attrName(a), lo, hi, got, err, want)
							return
						}
					}
				}(cl)
			}
			close(start)
			wg.Wait()

			for a := range seen {
				n := 0
				seen[a].Range(func(_, _ any) bool { n++; return true })
				if n > mode.maxPaths {
					t.Errorf("%s went through %d access paths, want at most %d: one was built twice", attrName(a), n, mode.maxPaths)
				}
			}
			if exec.kind != kindCracker {
				if builds := met.CrackerBuilds.Load(); builds != 0 {
					t.Errorf("CrackerBuilds = %d under a mode without cracker columns", builds)
				}
				return
			}
			builds := met.CrackerBuilds.Load()
			if exec.Daemon() == nil && builds != attrs {
				t.Errorf("CrackerBuilds = %d, want %d (one per attribute)", builds, attrs)
			}
			// AddPotential builds are not counted as first touches, so under
			// holistic the counter may fall short of attrs — never exceed it.
			if builds > attrs {
				t.Errorf("CrackerBuilds = %d for %d attributes: a cracker was built twice", builds, attrs)
			}
			for a := 0; a < attrs; a++ {
				c := exec.CrackerIfExists(attrName(a))
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
// stated directly and for every mode: while one attribute's build — a
// sort, a cracker copy, a chunking — is in flight, the executor's lock is
// free, so estimates on that attribute return and another attribute's
// first touch completes; only a second first touch of the same attribute
// waits, and then builds nothing twice.
func TestFirstTouchDoesNotHoldExecutorLock(t *testing.T) {
	for _, mode := range sevenModes {
		t.Run(mode.name, func(t *testing.T) {
			tbl, bases := testTable(t, 2, 1000, 1<<16)
			e := modeExecutor(tbl, mode.name)
			defer e.Close()

			// Stand in for a build of A in flight.
			inFlight := make(chan struct{})
			a := e.attrs["A"]
			a.mu.Lock()
			a.building = inFlight
			a.mu.Unlock()

			if _, ok := e.EstimateCount("A", 10, 20); ok {
				t.Fatal("unfinished build is visible to the planner")
			}
			if e.CrackerIfExists("A") != nil {
				t.Fatal("unfinished build is visible")
			}
			if n, err := e.Count("B", 10, 2000); err != nil || n != column.CountRange(bases[1], 10, 2000) {
				t.Fatalf("first touch of B beside A's build: %d, %v", n, err)
			}
			waiter := make(chan int)
			go func() {
				n, _ := e.Count("A", 10, 2000)
				waiter <- n
			}()
			select {
			case <-waiter:
				t.Fatal("second first touch of A did not wait for the build in flight")
			case <-time.After(20 * time.Millisecond):
			}
			// The build "fails" (finishes without publishing): the waiter takes over.
			a.mu.Lock()
			a.building = nil
			a.mu.Unlock()
			close(inFlight)
			if n := <-waiter; n != column.CountRange(bases[0], 10, 2000) || e.lookup("A") == nil {
				t.Fatalf("waiter answered %d and published %v", n, e.lookup("A"))
			}
		})
	}
}

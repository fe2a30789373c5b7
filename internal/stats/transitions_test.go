package stats

import (
	"sync"
	"testing"
)

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Actual: "actual", Potential: "potential", Optimal: "optimal", State(9): "unknown"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

// TestTransitionTimeline walks one index through the three configurations:
// admission as a candidate gives potential, the first access promotes it
// to actual once, and convergence to optimal is idempotent and final.
func TestTransitionTimeline(t *testing.T) {
	r := NewRegistry(1<<20, 1) // enormous L1 => optimal on first check
	c := col(t, 1024, 1)
	e := r.Add("a", c, true)
	if st := e.State(); st != Potential {
		t.Fatalf("candidate admitted as %v, want potential", st)
	}
	if st := r.Add("q", c, false).State(); st != Actual {
		t.Fatalf("query-created index admitted as %v, want actual", st)
	}

	r.RecordAccess("a", false)
	if st := e.State(); st != Actual {
		t.Fatalf("first access left the index %v, want actual", st)
	}
	r.RecordAccess("a", true)
	if st := e.State(); st != Actual || e.Accesses() != 2 || e.Hits() != 1 {
		t.Fatalf("second access: state %v, fI %d, fIh %d; want actual, 2, 1", st, e.Accesses(), e.Hits())
	}

	if !r.MarkOptimalIfDone(e) || !r.MarkOptimalIfDone(e) {
		t.Fatal("expected optimal with huge L1, on every check")
	}
	if st := e.State(); st != Optimal {
		t.Fatalf("converged index is %v, want optimal", st)
	}
	r.RecordAccess("a", false) // an access never demotes an optimal index
	if st := e.State(); st != Optimal {
		t.Fatalf("access after convergence left the index %v, want optimal", st)
	}
	if got := r.PickForRefinement(W1); got == e {
		t.Fatal("an optimal index was picked for refinement")
	}
}

// TestConcurrentAccessPromotesOnce is the -race check of the promotion:
// many queries touching a fresh candidate at once leave it actual with
// every access and hit counted, and concurrent accesses to an optimal
// index never move it back out of optimal.
func TestConcurrentAccessPromotesOnce(t *testing.T) {
	r := NewRegistry(1<<20, 1)
	e := r.Add("a", col(t, 1024, 1), true)
	const workers, perG = 8, 1000
	var wg sync.WaitGroup
	hammer := func(hit func(i int) bool) {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					r.RecordAccess("a", hit(i))
				}
			}()
		}
		wg.Wait()
	}
	hammer(func(i int) bool { return i%2 == 0 })
	if st := e.State(); st != Actual {
		t.Fatalf("state after concurrent accesses = %v, want actual", st)
	}
	if e.Accesses() != workers*perG || e.Hits() != workers*perG/2 {
		t.Fatalf("fI %d, fIh %d; want %d, %d", e.Accesses(), e.Hits(), workers*perG, workers*perG/2)
	}
	r.MarkOptimal(e)
	hammer(func(int) bool { return false })
	if st := e.State(); st != Optimal {
		t.Fatalf("concurrent accesses demoted an optimal index to %v", st)
	}
}

// TestRestoredStateObeysTransitions: an index recovered with persisted
// counts and state continues under the same rules — a restored candidate
// is promoted by its first access, and a restored optimal index stays
// optimal and is never picked for refinement.
func TestRestoredStateObeysTransitions(t *testing.T) {
	r := NewRegistry(0, 1)
	p := r.Add("p", col(t, 50_000, 1), false)
	p.RestoreCounts(0, 0, Potential)
	o := r.Add("o", col(t, 50_000, 2), false)
	o.RestoreCounts(7, 3, Optimal)
	r.RecordAccess("p", false)
	r.RecordAccess("o", true)
	if p.State() != Actual || p.Accesses() != 1 {
		t.Fatalf("restored candidate after access: %v fI %d, want actual 1", p.State(), p.Accesses())
	}
	if o.State() != Optimal || o.Accesses() != 8 || o.Hits() != 4 {
		t.Fatalf("restored optimal after access: %v fI %d fIh %d, want optimal 8 4", o.State(), o.Accesses(), o.Hits())
	}
	for _, s := range []Strategy{W1, W2, W3, W4} {
		if got := r.PickForRefinement(s); got != p {
			t.Fatalf("%v picked %v, want the restored actual index", s, got)
		}
	}
}

package cpu

import (
	"sync"
	"testing"
)

func TestLoadAccountant(t *testing.T) {
	a := NewLoadAccountant(8)
	if a.IdleContexts() != 8 {
		t.Errorf("fresh IdleContexts() = %d, want 8", a.IdleContexts())
	}
	Acquire(3)
	if a.IdleContexts() != 5 || Busy() != 3 {
		t.Errorf("after Acquire(3): idle %d busy %d", a.IdleContexts(), Busy())
	}
	// Every accountant is a view of the one count.
	if b := NewLoadAccountant(4); b.IdleContexts() != 1 {
		t.Errorf("second accountant IdleContexts() = %d, want 1", b.IdleContexts())
	}
	Acquire(10) // oversubscribed
	if a.IdleContexts() != 0 {
		t.Errorf("oversubscribed IdleContexts() = %d, want 0", a.IdleContexts())
	}
	Release(10)
	Release(3)
	if a.IdleContexts() != 8 {
		t.Errorf("after releases IdleContexts() = %d, want 8", a.IdleContexts())
	}
}

func TestLoadAccountantMinimumOneContext(t *testing.T) {
	a := NewLoadAccountant(0)
	if a.IdleContexts() != 1 {
		t.Errorf("IdleContexts() = %d, want 1", a.IdleContexts())
	}
}

func TestLoadAccountantConcurrent(t *testing.T) {
	a := NewLoadAccountant(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Acquire(2)
				Release(2)
			}
		}()
	}
	wg.Wait()
	if Busy() != 0 || a.IdleContexts() != 16 {
		t.Errorf("Busy() = %d, IdleContexts() = %d after balanced acquire/release", Busy(), a.IdleContexts())
	}
}

func TestBusyCountAllocationFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Acquire(2); Release(2) }); n != 0 {
		t.Errorf("Acquire/Release allocate %.0f times per pair, want 0", n)
	}
}

func TestFixed(t *testing.T) {
	f := Fixed{Idle: 3}
	if f.IdleContexts() != 3 {
		t.Errorf("Fixed.IdleContexts() = %d, want 3", f.IdleContexts())
	}
}

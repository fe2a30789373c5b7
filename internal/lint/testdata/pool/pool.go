// Package pool is a holisticlint fixture: scratch-recycling bugs the
// pool check must flag, and the ownership-transfer idioms it must not.
package pool

import "sync"

type scratch struct {
	buf []int64
	seq uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// holder owns a borrowed scratch; release covers the field, so stores
// into it are ownership transfers.
type holder struct {
	sc *scratch
}

func (h *holder) release() {
	if h.sc != nil {
		scratchPool.Put(h.sc)
		h.sc = nil
	}
}

// bucket has no releaser covering its field.
type bucket struct {
	sc *scratch
}

// leakOnReturn forgets the Put on the early exit.
func leakOnReturn(stop bool) int {
	sc := scratchPool.Get().(*scratch) // want "not returned to the pool"
	if stop {
		return 0
	}
	n := len(sc.buf)
	scratchPool.Put(sc)
	return n
}

// dropped discards the Get result outright.
func dropped() {
	scratchPool.Get() // want "discarded"
}

// blankGet assigns the borrow to the blank identifier.
func blankGet() {
	_ = scratchPool.Get() // want "assigned to _"
}

// returnAfterPut hands the caller recycled memory.
func returnAfterPut() *scratch {
	sc := scratchPool.Get().(*scratch)
	scratchPool.Put(sc)
	return sc // want "after it was already put back"
}

// returnUnderDefer is the same bug spelled with defer.
func returnUnderDefer() *scratch {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc // want "deferred Put releases it first"
}

// escapeUncovered parks the borrow in a struct nothing releases.
func escapeUncovered(b *bucket) {
	sc := scratchPool.Get().(*scratch)
	b.sc = sc // want "no releaser covers"
}

// leakAtContinue borrows again each iteration without putting back.
func leakAtContinue(ns []int) {
	for _, n := range ns {
		sc := scratchPool.Get().(*scratch)
		if n == 0 {
			continue // want "still held at continue"
		}
		scratchPool.Put(sc)
	}
}

// --- the idioms the scratch machinery uses, all silent ---

// borrow transfers ownership to the caller by returning the handle;
// the summary pass marks it a borrow helper.
func borrow() *scratch {
	sc, _ := scratchPool.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	return sc
}

// repackage returns a derived view of the borrow, like the cracking
// scratch helpers do.
func repackage(n int) []int64 {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.buf) < n {
		sc.buf = make([]int64, n)
	}
	sv := sc.buf[:n]
	return sv
}

// putBack is a release helper: it puts a parameter.
func putBack(sc *scratch) {
	scratchPool.Put(sc)
}

// viaHelpers borrows and releases through the helpers on every path.
func viaHelpers(stop bool) int {
	sc := borrow()
	if stop {
		putBack(sc)
		return 0
	}
	n := len(sc.buf)
	putBack(sc)
	return n
}

// viaDefer releases with a deferred helper.
func viaDefer() int {
	sc := borrow()
	defer putBack(sc)
	return len(sc.buf)
}

// viaDeferredClosure releases inside a deferred closure.
func viaDeferredClosure() int {
	sc := borrow()
	defer func() {
		putBack(sc)
	}()
	return len(sc.buf)
}

// storeCovered parks the borrow in a field the releaser covers.
func storeCovered(h *holder) {
	h.sc = borrow()
}

// stamp copies a scalar out of the borrow into an uncovered field: a
// value copy aliases none of the pooled storage, so it is neither an
// escape nor a transfer (the telemetry bracket stamps trace sequence
// numbers this way).
func stamp(out *struct{ seq uint64 }) {
	sc := scratchPool.Get().(*scratch)
	out.seq = sc.seq
	scratchPool.Put(sc)
}

// selfStore rearranges the pooled object's own storage.
func selfStore(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.buf) < n {
		sc.buf = make([]int64, n)
	}
	sc.buf = sc.buf[:n]
	return sc
}

package engine

import (
	"sync"
	"sync/atomic"

	"holistic/internal/column"
	"holistic/internal/stats"
	"holistic/internal/updates"
)

// attribute is the one record the executor keeps per column: the base
// column, its first-touch latch, its current access path, its update
// overlay and pending queue, and its write lock. Under holistic indexing
// the cracker's statistics entry travels with the path (crackerPath).
// Readers take no lock: the path, the overlay snapshot and the position
// universe are published atomically.
type attribute struct {
	name string
	base *column.Column

	// path is the current access path, nil before the first touch and
	// after an eviction. It is stored only under mu.
	path atomic.Pointer[accessPath]
	// view is the overlay snapshot View hands out, dropped (nil) by the
	// attribute's next mutation: queries pay the overlay map copy once per
	// update batch, not once per probe.
	view atomic.Pointer[column.View]
	// size is the position universe: base rows plus appended rows.
	size atomic.Int64

	// mu is the attribute's write lock. It serializes Insert, Delete and
	// Update from resolving their row to applying it, so two concurrent
	// deletes of a duplicated value take two distinct rows, and guards
	// everything below plus the stores of path. Lock order: mu → the
	// daemon's registry, and mu → Pending.mu → column locks.
	mu sync.Mutex
	// building is the first-touch latch: closed when the build in flight
	// is over, so other attributes never wait for an O(N) build and a
	// second first touch of this one builds nothing.
	building chan struct{}
	// pend is the queue the next write appends to. Until a cracker column
	// is built it is nobody's; the build takes it over, and once that
	// column is evicted the attribute gets a fresh queue replayed from the
	// overlay (evict).
	pend *updates.Pending
	// The overlay: the logical row-level state of every update regardless
	// of how much of the queue has been merged — the probe side of late
	// tuple reconstruction reads it through View, so conjunctive queries
	// see current data. tail[i] is the value of row len(base)+i, so row
	// ids stay unambiguous across inserts; deleted marks rows without a
	// value, updated overrides values of existing rows.
	tail    []int64
	deleted map[uint32]struct{}
	updated map[uint32]int64
}

func newAttribute(base *column.Column) *attribute {
	a := &attribute{name: base.Name(), base: base, pend: updates.NewPending()}
	a.view.Store(&column.View{Base: base.Values()})
	a.size.Store(int64(base.Len()))
	return a
}

// current returns the published access path, nil if there is none.
//
//holistic:noalloc
func (a *attribute) current() accessPath {
	if p := a.path.Load(); p != nil {
		return *p
	}
	return nil
}

// extent returns the size of the position space row ids of the
// attribute can occupy: base rows plus rows appended by insertions.
//
//holistic:noalloc
func (a *attribute) extent() int { return int(a.size.Load()) }

// evict frees the attribute's cracker column if it is the one the daemon
// evicted: the path is cleared, so the next touch rebuilds the index from
// the base column like a first touch, and the attribute gets a fresh
// pending queue replayed from its overlay, which that rebuild takes over.
// A query still walking the old path keeps merging into the old queue.
func (a *attribute) evict(victim *stats.Entry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cp, ok := a.current().(*crackerPath); ok && cp.entry == victim {
		a.path.Store(nil)
		a.replayOverlay()
	}
}

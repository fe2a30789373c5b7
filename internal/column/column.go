// Package column provides the storage substrate of the column-store:
// dense fixed-width arrays, tight-loop scan kernels, selection vectors
// (position lists) and dictionary encoding for string attributes.
//
// It mirrors the storage model the paper assumes (Section 3.1): every
// relational table is vertically fragmented into one dense array per
// attribute, values of one tuple share the same position across arrays,
// and operators work on whole columns at a time with tight for loops.
package column

import (
	"fmt"
	"sync"
)

// Pos is a tuple position (row id) inside a column. 32 bits cover the
// column sizes this repository targets (the paper's 2^30 also fits).
type Pos = uint32

// PosList is a selection vector: the positions of qualifying tuples in
// the order they were found. It is the intermediate result a select
// operator hands to downstream project operators.
type PosList []Pos

// Column is a dense, fixed-width, in-memory integer column. Non-integer
// attribute types are mapped onto int64 by the layers above (dates become
// day numbers, decimals become scaled integers, strings become dictionary
// codes), exactly as a fixed-width column-store would store them.
type Column struct {
	name string
	vals []int64
	// lo, hi are Bounds(vals) once scanned has run: seeded by NewBounded,
	// computed by the first Bounds call otherwise. vals never change, so
	// neither do they.
	scanned sync.Once
	lo, hi  int64
}

// New creates a column that takes ownership of vals.
func New(name string, vals []int64) *Column {
	return &Column{name: name, vals: vals}
}

// NewBounded is New for values whose Bounds the caller already holds — a
// loader that has just decoded every one of them — so that no reader has
// to scan the column for them.
func NewBounded(name string, vals []int64, lo, hi int64) *Column {
	c := &Column{name: name, vals: vals}
	c.scanned.Do(func() { c.lo, c.hi = lo, hi })
	return c
}

// Bounds returns Bounds(Values()): the one home of an attribute's base
// value domain, which the planner's uniform estimates and the grouping
// key domains read. The column is scanned at most once, by whichever
// caller asks first; never when it was built knowing them.
//
//holistic:noalloc
func (c *Column) Bounds() (lo, hi int64) {
	c.scanned.Do(func() { c.lo, c.hi = Bounds(c.vals) })
	return c.lo, c.hi
}

// Name returns the attribute name.
func (c *Column) Name() string { return c.name }

// Len returns the number of tuples.
func (c *Column) Len() int { return len(c.vals) }

// Values exposes the underlying array. Callers must treat it as read-only;
// operators use it to run tight scan loops without copying.
func (c *Column) Values() []int64 { return c.vals }

// At returns the value at position p.
func (c *Column) At(p Pos) int64 { return c.vals[p] }

// Bounds returns the minimum and maximum value of vals; an empty slice
// reports the inverted pair (0, -1) so range overlap math naturally
// yields zero.
//
//holistic:noalloc
func Bounds(vals []int64) (lo, hi int64) {
	if len(vals) == 0 {
		return 0, -1
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// UniformEstimate is the shared uniform-domain selectivity guess used
// by the conjunctive query planners:
//
//	rows * |[lo,hi) ∩ [dLo,dHi]| / |[dLo,dHi]|
//
// Pass rows = 1 for a bare selectivity fraction.
//
//holistic:noalloc
func UniformEstimate(rows float64, dLo, dHi, lo, hi int64) float64 {
	if hi <= lo || dHi < dLo {
		return 0
	}
	span := float64(dHi) - float64(dLo) + 1
	cLo, cHi := float64(lo), float64(hi)
	if cLo < float64(dLo) {
		cLo = float64(dLo)
	}
	if cHi > float64(dHi)+1 {
		cHi = float64(dHi) + 1
	}
	if cHi <= cLo {
		return 0
	}
	return rows * (cHi - cLo) / span
}

// Dict is an order-preserving string dictionary. Low-cardinality string
// attributes (TPC-H return flags, ship modes, ...) are stored as int64
// codes in a Column; Dict translates between the two representations.
//
// Codes are assigned in first-seen order, so range predicates over codes
// are only meaningful per-value (equality / IN lists), which is all the
// workloads here need.
type Dict struct {
	mu      sync.RWMutex
	codes   map[string]int64
	strings []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int64)}
}

// Encode returns the code for s, assigning a fresh one if unseen.
func (d *Dict) Encode(s string) int64 {
	d.mu.RLock()
	code, ok := d.codes[s]
	d.mu.RUnlock()
	if ok {
		return code
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if code, ok := d.codes[s]; ok {
		return code
	}
	code = int64(len(d.strings))
	d.codes[s] = code
	d.strings = append(d.strings, s)
	return code
}

// Lookup returns the code for s without assigning; ok reports presence.
func (d *Dict) Lookup(s string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	code, ok := d.codes[s]
	return code, ok
}

// Decode translates a code back to its string.
func (d *Dict) Decode(code int64) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || code >= int64(len(d.strings)) {
		return fmt.Sprintf("<bad code %d>", code)
	}
	return d.strings[code]
}

// Card returns the number of distinct strings in the dictionary.
func (d *Dict) Card() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strings)
}

// Package noalloc is a holisticlint fixture: every construct the
// noalloc check must flag, plus the idioms it must NOT flag. Lines
// carrying a want marker must produce a diagnostic whose message
// contains the quoted substring; all other lines must stay silent.
package noalloc

import (
	"fmt"
	"sync/atomic"
)

//holistic:noalloc
func makes() []int {
	s := make([]int, 4) // want "make allocates"
	p := new(int)       // want "new allocates"
	_ = p
	return s
}

//holistic:noalloc
func literals() {
	m := map[string]int{} // want "map literal allocates"
	s := []int{1, 2, 3}   // want "slice literal allocates"
	a := [3]int{1, 2, 3}  // arrays are values: fine
	v := point{1, 2}      // struct values: fine
	q := &point{3, 4}     // want "address of a composite literal"
	_, _, _, _, _ = m, s, a, v, q
}

type point struct{ x, y int }

//holistic:noalloc
func appends(dst, other []int) []int {
	dst = append(dst, 1)     // self-append: fine
	dst = append(dst[:0], 2) // reslice self-append: fine
	dst = append(other, 3)   // want "append into a different destination"
	return dst
}

//holistic:noalloc
func spawns() {
	go func() {}() // want "starts a goroutine"
}

//holistic:noalloc
func boxes(n int, p *point) (any, error) {
	var x any = n // want "boxing int into any"
	sink(p)       // pointers are direct: fine
	sink(n)       // want "boxing int into any"
	return x, nil
}

func sink(v any) { _ = v }

//holistic:noalloc
func narrows[T int32 | uint64](dst []T, v uint64) {
	dst[0] = T(v) // a conversion to a type parameter is not a box: fine
}

//holistic:noalloc
func formats(n int) string {
	return fmt.Sprintf("%d", n) // want "calls fmt.Sprintf"
}

//holistic:noalloc
func strings(a, b string, bs []byte) {
	c := a + b      // want "string concatenation allocates"
	d := []byte(a)  // want "string-to-slice conversion allocates"
	e := string(bs) // want "slice-to-string conversion allocates"
	_, _, _ = c, d, e
}

//holistic:noalloc
func dies(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative %d", n)) // terminal path: fine
	}
}

// helper allocates but is not annotated; noalloc callers are charged at
// the call site.
func helper() []int {
	return make([]int, 8)
}

//holistic:noalloc
func transitive() []int {
	return helper() // want "calls helper, which allocates"
}

//holistic:alloc-ok warms the cache on first use
func boundary() []int {
	return make([]int, 8) // reviewed boundary: fine
}

//holistic:noalloc
func viaBoundary() []int {
	return boundary() // fine
}

//holistic:noalloc
func viaErrf(n int) error {
	return errf("bad count %d", n) // boundary covers its variadic boxing
}

//holistic:alloc-ok error paths format their diagnostics
func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// recorder mirrors the telemetry hot path: record functions bump
// pre-sized atomic state. Atomic operations are fine; growing storage
// lazily inside the record call is the classic regression.
type recorder struct {
	n       atomic.Int64
	buckets []atomic.Int64
}

//holistic:noalloc
func (r *recorder) record(ns int64) {
	r.n.Add(1) // atomic bump on pre-sized state: fine
	if r.buckets == nil {
		r.buckets = make([]atomic.Int64, 64) // want "make allocates"
	}
	r.buckets[0].Add(ns)
}

//holistic:noalloc
func (r *recorder) observe(op int, ns int64) {
	labels := map[int]int64{op: ns} // want "map literal allocates"
	_ = labels
	r.n.Add(ns)
}

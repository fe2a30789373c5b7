package main

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// oracle computes the expected answer of every operation from the generated
// data alone, outside the timed region. Range counts and sums come from a
// sorted copy with prefix sums per attribute; conjunctive, grouped and join
// answers are brute-forced for a seeded sample; update-durable replays its
// writes into a shadow multiset. A disagreement is counted, never a panic.
type oracle struct {
	d      *dataset
	sorted [][]int64 // per uniform attribute
	prefix [][]int64 // prefix[a][i] = sum of sorted[a][:i]
}

func newOracle(d *dataset, w workloadDef) *oracle {
	o := &oracle{d: d}
	if w.Class == classAnalytic {
		return o // brute force only
	}
	o.sorted = make([][]int64, d.uniform)
	o.prefix = make([][]int64, d.uniform)
	sem := make(chan struct{}, nproc())
	var wg sync.WaitGroup
	for a := 0; a < d.uniform; a++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := slices.Clone(d.cols[a])
			slices.Sort(s)
			p := make([]int64, len(s)+1)
			for i, v := range s {
				p[i+1] = p[i] + v
			}
			o.sorted[a], o.prefix[a] = s, p
		}()
	}
	wg.Wait()
	return o
}

// span returns the positions of [lo, hi) in the sorted copy of attribute a.
func (o *oracle) span(a int, lo, hi int64) (int, int) {
	s := o.sorted[a]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	j := sort.Search(len(s), func(i int) bool { return s[i] >= hi })
	if j < i {
		j = i
	}
	return i, j
}

func (o *oracle) rangeCount(a int, lo, hi int64) int64 {
	i, j := o.span(a, lo, hi)
	return int64(j - i)
}

func (o *oracle) rangeSum(a int, lo, hi int64) int64 {
	i, j := o.span(a, lo, hi)
	return o.prefix[a][j] - o.prefix[a][i]
}

// shadow is the multiset delta update-durable's writes leave on top of the
// base columns: what a correct store must answer after each write, and after
// recover and reopen.
type shadow struct {
	o *oracle
	// Per attribute, the written values and their multiplicity changes in
	// arrival order.
	vals  [][]int64
	signs [][]int64
}

func newShadow(o *oracle) *shadow {
	return &shadow{o: o, vals: make([][]int64, o.d.uniform), signs: make([][]int64, o.d.uniform)}
}

func (s *shadow) note(a int, v, sign int64) {
	s.vals[a] = append(s.vals[a], v)
	s.signs[a] = append(s.signs[a], sign)
}

func (s *shadow) apply(op *op) {
	switch op.kind {
	case kInsert:
		s.note(op.attr, op.v, 1)
	case kDelete:
		s.note(op.attr, op.v, -1)
	case kUpdate:
		s.note(op.attr, op.v, -1)
		s.note(op.attr, op.v2, 1)
	}
}

func (s *shadow) rangeCount(a int, lo, hi int64) int64 {
	n := s.o.rangeCount(a, lo, hi)
	for i, v := range s.vals[a] {
		if v >= lo && v < hi {
			n += s.signs[a][i]
		}
	}
	return n
}

// verify compares one client's answers with the oracle and returns how many
// operations failed: an error, or an answer that differs. sampleSeed picks
// the brute-forced sample of the analytic operations.
func (o *oracle) verify(seq []op, t *timings, sampleSeed int64) int {
	failed := 0
	rng := rand.New(rand.NewSource(sampleSeed))
	var sh *shadow
	if o.sorted != nil {
		sh = newShadow(o)
	}
	for i := range seq {
		op := &seq[i]
		if t.failed[i] {
			failed++
			continue
		}
		var want int64
		switch op.kind {
		case kCount, kSum:
			want = o.expect(op, sh)
		case kInsert, kDelete, kUpdate:
			sh.apply(op)
			continue
		case kCheckpoint:
			continue
		default:
			if rng.Float64() >= sampleRate {
				continue
			}
			want = o.expect(op, nil)
		}
		if t.ans[i] != want {
			failed++
		}
	}
	return failed
}

// finalShadow is the shadow once the whole sequence is applied.
func (o *oracle) finalShadow(seq []op) *shadow {
	sh := newShadow(o)
	for i := range seq {
		sh.apply(&seq[i])
	}
	return sh
}

// expected maps every (attribute, value) a write named to the multiplicity
// the value must have now — what recover and reopen are checked against.
func (s *shadow) expected() map[[2]int64]int64 {
	want := make(map[[2]int64]int64)
	for a := range s.vals {
		for i, v := range s.vals[a] {
			k := [2]int64{int64(a), v}
			if _, ok := want[k]; !ok {
				want[k] = s.o.rangeCount(a, v, v+1)
			}
			want[k] += s.signs[a][i]
		}
	}
	return want
}

// expect is the answer a read must give; sh carries the writes applied so
// far (nil: none).
func (o *oracle) expect(op *op, sh *shadow) int64 {
	switch op.kind {
	case kCount:
		if sh != nil {
			return sh.rangeCount(op.preds[0].attr, op.preds[0].lo, op.preds[0].hi)
		}
		return o.rangeCount(op.preds[0].attr, op.preds[0].lo, op.preds[0].hi)
	case kSum:
		return o.rangeSum(op.preds[0].attr, op.preds[0].lo, op.preds[0].hi)
	}
	return o.brute(op)
}

// matching lists the rows every predicate of op accepts (all rows when it
// has none): one plain pass per predicate.
func (o *oracle) matching(op *op) []int32 {
	d := o.d
	var rows []int32
	if len(op.preds) == 0 {
		rows = make([]int32, d.rows())
		for r := range rows {
			rows[r] = int32(r)
		}
		return rows
	}
	p := op.preds[0]
	for r, v := range d.cols[p.attr] {
		if v >= p.lo && v < p.hi {
			rows = append(rows, int32(r))
		}
	}
	for _, p := range op.preds[1:] {
		col, kept := d.cols[p.attr], rows[:0]
		for _, r := range rows {
			if v := col[r]; v >= p.lo && v < p.hi {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return rows
}

// brute answers a conjunctive, grouped or join operation by plain loops over
// the rows — no index, no shared code with the store.
func (o *oracle) brute(op *op) int64 {
	d := o.d
	rows := o.matching(op)
	switch op.kind {
	case kConjCount:
		return int64(len(rows))
	case kConjSum:
		var s int64
		for _, r := range rows {
			s += d.cols[op.attr][r]
		}
		return s
	case kJoin:
		dimCount := make(map[int64]int64)
		for r, k := range d.dimCols[0] {
			if v := d.dimCols[1][r]; v >= op.dimLo && v < op.dimHi {
				dimCount[k]++
			}
		}
		var n int64
		for _, r := range rows {
			n += dimCount[d.cols[d.joinKey][r]]
		}
		return n
	case kGrouped:
		type acc struct{ count, sum, min, max int64 }
		groups := make(map[[2]int64]*acc)
		for _, r := range rows {
			var k [2]int64
			for i, ka := range op.keys {
				k[i] = d.cols[ka][r]
			}
			v := d.cols[op.attr][r]
			g := groups[k]
			if g == nil {
				g = &acc{min: v, max: v}
				groups[k] = g
			}
			g.count++
			g.sum += v
			g.min = min(g.min, v)
			g.max = max(g.max, v)
		}
		keys := make([][2]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b [2]int64) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		h := newFingerprint()
		for _, k := range keys {
			g := groups[k]
			for i := range op.keys {
				h.add(k[i])
			}
			h.add(g.count)
			h.add(g.sum)
			h.add(g.min)
			h.add(g.max)
		}
		return h.sum()
	}
	return 0
}

// fingerprint folds a grouped result table — group by group, keys then
// count, sum, min, max — into the one int64 an answer is compared by.
type fingerprint uint64

func newFingerprint() *fingerprint { f := fingerprint(14695981039346656037); return &f }

func (f *fingerprint) add(v int64) {
	*f = (*f ^ fingerprint(uint64(v))) * 1099511628211
}

func (f *fingerprint) sum() int64 { return int64(*f) }

// tableFingerprint fingerprints an ordered result table as the oracle does.
func tableFingerprint(keys, aggs [][]int64) int64 {
	h := newFingerprint()
	if len(keys) == 0 {
		return h.sum()
	}
	for g := range keys[0] {
		for _, k := range keys {
			h.add(k[g])
		}
		for _, a := range aggs {
			h.add(a[g])
		}
	}
	return h.sum()
}

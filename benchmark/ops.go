package main

import (
	"math/rand"

	"holistic/internal/workload"
)

// opKind is the operation a client sends.
type opKind uint8

const (
	kCount     opKind = iota // CountRange
	kSum                     // SumRange
	kConjCount               // Query().Where…Count()
	kConjSum                 // Query().Where…Sum(attr)
	kGrouped                 // Query().Where…GroupBy(keys).Aggregate(count,sum,min,max)
	kJoin                    // Query().Where….Join(dim.Query().Where(v…), jk, k).Count()
	kInsert
	kDelete
	kUpdate
	kCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"count", "sum", "conj_count", "conj_sum", "grouped", "join", "insert", "delete", "update", "checkpoint"}

func (k opKind) String() string { return kindNames[k] }

// opClass is what the latency metrics pool by.
type opClass uint8

const (
	cRead opClass = iota // range and conjunctive count/sum: query_p50_us, query_p99_us
	cGrouped
	cJoin
	cWrite
	cAdmin // the checkpoint: in session_s, in no percentile
	numClasses
)

func (k opKind) class() opClass {
	switch k {
	case kGrouped:
		return cGrouped
	case kJoin:
		return cJoin
	case kInsert, kDelete, kUpdate:
		return cWrite
	case kCheckpoint:
		return cAdmin
	}
	return cRead
}

// pred is lo <= attr < hi on the attribute at index attr of the main store.
type pred struct {
	attr   int
	lo, hi int64
}

// op is one generated operation. Which fields matter depends on kind.
type op struct {
	kind  opKind
	preds []pred // the range (one), the conjuncts, or the main-side filter
	attr  int    // summed / aggregated / written attribute
	keys  []int  // group-by attributes
	// dimLo/dimHi filter the join partner's payload v.
	dimLo, dimHi int64
	// v is the inserted or deleted value, or an update's old value; v2 an
	// update's new value.
	v, v2 int64
}

// attrs lists the main-store attributes the operation references; the first
// operation to reference an attribute is that attribute's first touch.
func (o *op) attrs(d *dataset) []int {
	out := make([]int, 0, 6)
	for _, p := range o.preds {
		out = append(out, p.attr)
	}
	switch o.kind {
	case kConjSum, kInsert, kDelete, kUpdate:
		out = append(out, o.attr)
	case kGrouped:
		out = append(out, o.attr)
		out = append(out, o.keys...)
	case kJoin:
		out = append(out, d.joinKey)
	}
	return out
}

// genOps builds one client's operation sequence for a session. The same
// (workload shape, dataset, seed) always gives the same sequence.
func genOps(w workloadDef, d *dataset, seed int64) []op {
	switch w.Class {
	case classAnalytic:
		return genAnalytic(w, d, seed)
	case classUpdate:
		return genUpdate(w, d, seed)
	}
	return genRange(w, d, seed)
}

func toPreds(qs []workload.Query) []pred {
	out := make([]pred, len(qs))
	for i, q := range qs {
		out[i] = pred{q.Attr, q.Lo, q.Hi}
	}
	return out
}

// genRange: single-attribute random ranges, 80 % count and 20 % sum.
func genRange(w workloadDef, d *dataset, seed int64) []op {
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: w.Ops, Domain: domain, Attrs: d.uniform, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{kind: kCount, preds: []pred{{q.Attr, q.Lo, q.Hi}}, attr: q.Attr}
		if rng.Intn(5) == 0 {
			ops[i].kind = kSum
		}
	}
	return ops
}

// genAnalytic: 60 % two- or three-conjunct count/sum, 25 % grouped
// aggregation over the low-cardinality keys, 15 % filtered joins, shuffled.
func genAnalytic(w workloadDef, d *dataset, seed int64) []op {
	nGrouped := w.Ops / 4
	nJoin := w.Ops * 15 / 100
	nConj := w.Ops - nGrouped - nJoin
	base := workload.Config{Pattern: workload.Random, Domain: domain, Attrs: d.uniform, Seed: seed}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := make([]op, 0, w.Ops)

	base.Queries = nConj
	for _, q := range workload.GenerateConjunctive(workload.ConjConfig{Config: base}) {
		o := op{kind: kConjCount, preds: toPreds(q.Preds)}
		if rng.Intn(3) == 0 {
			o.kind, o.attr = kConjSum, rng.Intn(d.uniform)
		}
		ops = append(ops, o)
	}

	base.Queries, base.Seed = nGrouped, seed+1
	for _, q := range workload.GenerateGrouped(workload.GroupedConfig{Config: base, MaxKeys: 1}) {
		// GenerateGrouped draws its key among the predicate attributes; the
		// draw only picks which of the group-key columns to use, and the
		// aggregated attribute is the drawn one (never a predicate's).
		o := op{kind: kGrouped, preds: toPreds(q.Preds), attr: q.Keys[0]}
		switch q.Keys[0] % 3 {
		case 0:
			o.keys = d.groupKeys[:1]
		case 1:
			o.keys = d.groupKeys[1:]
		default:
			o.keys = d.groupKeys
		}
		ops = append(ops, o)
	}

	base.Queries, base.Seed = nJoin, seed+2
	for _, q := range workload.Generate(base) {
		lo := rng.Int63n(domain - int64(dimKeep*float64(domain)))
		ops = append(ops, op{
			kind: kJoin, preds: []pred{{q.Attr, q.Lo, q.Hi}},
			dimLo: lo, dimHi: lo + int64(dimKeep*float64(domain)),
		})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// genUpdate: reads and writes one for one in the HFLV rhythm of
// workload.InsertBatches (ten reads, ten writes); writes are 60 % inserts,
// 20 % deletes and 20 % updates; one checkpoint at the midpoint. Deletes and
// updates name values that exist: each victim is a distinct base row.
func genUpdate(w workloadDef, d *dataset, seed int64) []op {
	reads := w.Ops / 2
	qs := workload.Generate(workload.Config{
		Pattern: workload.Random, Queries: reads, Domain: domain, Attrs: d.uniform, Seed: seed,
	})
	batches := workload.InsertBatches(workload.HFLV, reads, domain, seed+1)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	head := headRows
	if head > d.rows() {
		head = d.rows()
	}
	victims := make([][]int, d.uniform)
	nextVictim := func(a int) (int64, bool) {
		if victims[a] == nil {
			victims[a] = rng.Perm(head)
		}
		if len(victims[a]) == 0 {
			return 0, false
		}
		row := victims[a][0]
		victims[a] = victims[a][1:]
		return d.cols[a][row], true
	}

	ops := make([]op, 0, w.Ops+1)
	b, checkpointed := 0, false
	for i, q := range qs {
		if !checkpointed && len(ops) >= w.Ops/2 {
			ops = append(ops, op{kind: kCheckpoint})
			checkpointed = true
		}
		ops = append(ops, op{kind: kCount, preds: []pred{{q.Attr, q.Lo, q.Hi}}, attr: q.Attr})
		if b < len(batches) && batches[b].AfterQuery == i+1 {
			for _, v := range batches[b].Values {
				o := op{kind: kInsert, attr: rng.Intn(d.uniform), v: v}
				if r := rng.Intn(5); r >= 3 {
					if old, ok := nextVictim(o.attr); ok {
						if r == 3 {
							o.kind, o.v = kDelete, old
						} else {
							o.kind, o.v, o.v2 = kUpdate, old, v
						}
					}
				}
				ops = append(ops, o)
			}
			b++
		}
	}
	return ops
}

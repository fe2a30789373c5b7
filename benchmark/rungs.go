package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"holistic"
	"holistic/internal/column"
	"holistic/internal/cracking"
	"holistic/internal/engine"
	"holistic/internal/groupby"
	"holistic/internal/join"
	"holistic/internal/query"
)

// rung is one layer of the outside-in ladder: it answers the benchmark's
// operations by calling that layer's exported functions directly. An answer
// is one int64 — the count, the sum, or the fingerprint of a grouped table —
// so every rung can be checked against the same oracle.
type rung interface {
	exec(o *op) (int64, error)
	close()
}

// errSkip marks an operation a rung has no counterpart for (a checkpoint
// below the durable store); the replay leaves it out.
var errSkip = errors.New("benchmark: operation not applicable to this rung")

// ---- Store API -------------------------------------------------------

// storeRung drives the public holistic.Store API — the top of every ladder
// and the only rung the end-to-end sessions use.
type storeRung struct {
	d         *dataset
	main, dim *holistic.Store
	durable   bool // main was opened with OpenStore
}

func (r *storeRung) close() {
	r.main.Close()
	if r.dim != nil {
		r.dim.Close()
	}
}

// openStores builds the stores of a workload: the timed part of setup_s.
// dir is the data directory of a durable store, empty otherwise.
func openStores(w workloadDef, d *dataset, cfg holistic.Config, dir string) (*storeRung, error) {
	r := &storeRung{d: d}
	if w.Durable && dir != "" {
		s, err := holistic.OpenStore(dir, cfg)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		r.main, r.durable = s, true
	} else {
		r.main = holistic.NewStore(cfg)
	}
	for i, c := range d.cols {
		if err := r.main.AddIntColumn(d.names[i], c); err != nil {
			r.close()
			return nil, fmt.Errorf("add column: %w", err)
		}
	}
	r.main.Prepare()
	if d.dimCols != nil {
		r.dim = holistic.NewStore(cfg)
		for i, c := range d.dimCols {
			if err := r.dim.AddIntColumn(d.dimNames[i], c); err != nil {
				r.close()
				return nil, fmt.Errorf("add column: %w", err)
			}
		}
		r.dim.Prepare()
	}
	return r, nil
}

func (r *storeRung) where(o *op) *holistic.Query {
	q := r.main.Query()
	for _, p := range o.preds {
		q = q.Where(r.d.names[p.attr], p.lo, p.hi)
	}
	return q
}

func (r *storeRung) exec(o *op) (int64, error) {
	names := r.d.names
	switch o.kind {
	case kCount:
		n, err := r.main.CountRange(names[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi)
		return int64(n), err
	case kSum:
		return r.main.SumRange(names[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi)
	case kConjCount:
		n, err := r.where(o).Count()
		return int64(n), err
	case kConjSum:
		return r.where(o).Sum(names[o.attr])
	case kGrouped:
		keys := make([]string, len(o.keys))
		for i, k := range o.keys {
			keys[i] = names[k]
		}
		a := names[o.attr]
		res, err := r.where(o).GroupBy(keys...).Aggregate(holistic.Count(), holistic.Sum(a), holistic.Min(a), holistic.Max(a))
		if err != nil {
			return 0, err
		}
		return tableFingerprint(res.Keys, res.Aggs), nil
	case kJoin:
		right := r.dim.Query().Where(r.d.dimNames[1], o.dimLo, o.dimHi)
		return r.where(o).Join(right, names[r.d.joinKey], r.d.dimNames[0]).Count()
	case kInsert:
		return 0, r.main.Insert(names[o.attr], o.v)
	case kDelete:
		return 0, r.main.Delete(names[o.attr], o.v)
	case kUpdate:
		return 0, r.main.Update(names[o.attr], o.v, o.v2)
	case kCheckpoint:
		if !r.durable {
			return 0, errSkip
		}
		return 0, r.main.Checkpoint()
	}
	return 0, fmt.Errorf("store rung: unknown operation %v", o.kind)
}

// ---- engine tables shared by the inner rungs -------------------------

func crackConfig(seed int64) cracking.Config {
	// What Store.build passes for ModeAdaptive.
	return cracking.Config{Kernel: cracking.KernelVectorized, ParallelWorkers: nproc(), WithRows: true, Seed: seed}
}

func newTable(name string, names []string, cols [][]int64) *engine.Table {
	t := engine.NewTable(name)
	for i, c := range cols {
		t.MustAddColumn(column.New(names[i], c))
	}
	return t
}

// side is one relation at the engine level: table, adaptive executor and the
// query runner over them.
type side struct {
	table  *engine.Table
	exec   *engine.AdaptiveExecutor
	runner *query.Runner
}

func newSide(name string, names []string, cols [][]int64, seed int64) *side {
	t := newTable(name, names, cols)
	e := engine.NewAdaptiveExecutor(t, crackConfig(seed), "")
	return &side{table: t, exec: e, runner: query.New(t, e, nproc())}
}

// ---- query.Runner ----------------------------------------------------

// queryRung calls query.Runner over an AdaptiveExecutor: the Store minus its
// lock, its closed check and its recording.
type queryRung struct {
	d         *dataset
	main, dim *side
	res       groupby.Result
}

func newQueryRung(d *dataset, seed int64) *queryRung {
	r := &queryRung{d: d, main: newSide("main", d.names, d.cols, seed)}
	if d.dimCols != nil {
		r.dim = newSide("dim", d.dimNames, d.dimCols, seed)
	}
	return r
}

func (r *queryRung) close() { r.main.exec.Close() }

func (r *queryRung) preds(o *op) []query.Predicate {
	out := make([]query.Predicate, len(o.preds))
	for i, p := range o.preds {
		out[i] = query.Predicate{Attr: r.d.names[p.attr], Lo: p.lo, Hi: p.hi}
	}
	return out
}

func (r *queryRung) exec(o *op) (int64, error) {
	names := r.d.names
	switch o.kind {
	case kCount, kConjCount:
		n, err := r.main.runner.Count(r.preds(o))
		return int64(n), err
	case kSum:
		return r.main.runner.Sum(names[o.preds[0].attr], r.preds(o))
	case kConjSum:
		return r.main.runner.Sum(names[o.attr], r.preds(o))
	case kGrouped:
		keys := make([]string, len(o.keys))
		for i, k := range o.keys {
			keys[i] = names[k]
		}
		a := names[o.attr]
		aggs := []groupby.Agg{groupby.Count(), groupby.Sum(a), groupby.Min(a), groupby.Max(a)}
		if err := r.main.runner.GroupedInto(&r.res, keys, aggs, r.preds(o)); err != nil {
			return 0, err
		}
		return tableFingerprint(r.res.Keys, r.res.Aggs), nil
	case kJoin:
		rp := []query.Predicate{{Attr: r.d.dimNames[1], Lo: o.dimLo, Hi: o.dimHi}}
		return r.main.runner.Join(r.dim.runner, names[r.d.joinKey], r.d.dimNames[0], r.preds(o), rp).Count()
	}
	return 0, errSkip
}

// ---- engine + kernels composed by hand -------------------------------

// engineRung answers through engine.AdaptiveExecutor directly. Range reads
// and writes are one executor call. Conjunctive, grouped and join queries are
// composed by hand the way query.Runner composes them — drive the narrowest
// conjunct through the executor's bitmap select, refine with column kernels,
// then fold, group or join — so the rung above shows what the planner, the
// representation choice, the pooled scratch and the recording add. The
// kernel timers split the rung's time by the layer that spent it.
type engineRung struct {
	d         *dataset
	main, dim *side
	res       groupby.Result

	// Kernel time inside this rung's operations, and the work it covered.
	groupNS, groupRows, groupCalls int64
	hashNS, hashCalls              int64
}

func newEngineRung(d *dataset, seed int64) *engineRung {
	r := &engineRung{d: d, main: newSide("main", d.names, d.cols, seed)}
	if d.dimCols != nil {
		r.dim = newSide("dim", d.dimNames, d.dimCols, seed)
	}
	return r
}

func (r *engineRung) close() { r.main.exec.Close() }

// selectInto leaves the rows qualifying for every predicate in bm: the
// narrowest range drives (on uniform data the most selective conjunct, the
// planner's own rule), the others filter. No predicates selects every row.
func selectInto(s *side, names []string, preds []pred, bm *column.Bitmap) error {
	if len(preds) == 0 {
		bm.Reset(s.table.Rows())
		bm.SetRange(0, s.table.Rows())
		return nil
	}
	drive := 0
	for i, p := range preds {
		if p.hi-p.lo < preds[drive].hi-preds[drive].lo {
			drive = i
		}
	}
	p := preds[drive]
	if err := s.exec.SelectBitmap(names[p.attr], p.lo, p.hi, bm); err != nil {
		return err
	}
	for i, p := range preds {
		if i != drive {
			column.FilterBitmap(s.table.Column(names[p.attr]).Values(), bm, p.lo, p.hi)
		}
	}
	return nil
}

func (r *engineRung) exec(o *op) (int64, error) {
	names := r.d.names
	e := r.main.exec
	switch o.kind {
	case kCount:
		n, err := e.Count(names[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi)
		return int64(n), err
	case kSum:
		return e.Sum(names[o.preds[0].attr], o.preds[0].lo, o.preds[0].hi)
	case kInsert:
		return 0, e.Insert(names[o.attr], o.v)
	case kDelete:
		return 0, e.Delete(names[o.attr], o.v)
	case kUpdate:
		return 0, e.Update(names[o.attr], o.v, o.v2)
	case kCheckpoint:
		return 0, errSkip
	}

	bm := column.GetBitmap(r.d.rows())
	defer column.PutBitmap(bm)
	if err := selectInto(r.main, names, o.preds, bm); err != nil {
		return 0, err
	}
	switch o.kind {
	case kConjCount:
		return int64(bm.Count()), nil
	case kConjSum:
		return column.SumBitmap(r.d.cols[o.attr], bm), nil
	case kGrouped:
		return r.grouped(o, bm)
	case kJoin:
		return r.join(o, bm)
	}
	return 0, fmt.Errorf("engine rung: unknown operation %v", o.kind)
}

func plainView(vals []int64) column.View { return column.View{Base: vals} }

func (r *engineRung) grouped(o *op, bm *column.Bitmap) (int64, error) {
	spec := groupby.Spec{Threads: nproc()}
	for _, k := range o.keys {
		lo, hi := column.Bounds(r.d.cols[k])
		spec.Keys = append(spec.Keys, groupby.Key{View: plainView(r.d.cols[k]), Lo: lo, Hi: hi})
	}
	a := r.d.names[o.attr]
	v := plainView(r.d.cols[o.attr])
	spec.Aggs = []groupby.Agg{groupby.Count(), groupby.Sum(a), groupby.Min(a), groupby.Max(a)}
	spec.AggViews = []column.View{{}, v, v, v}
	rows := int64(bm.Count())
	t0 := time.Now()
	err := groupby.GroupBitmap(&spec, bm, &r.res)
	r.groupNS += time.Since(t0).Nanoseconds()
	r.groupRows += rows
	r.groupCalls++
	if err != nil {
		return 0, err
	}
	return tableFingerprint(r.res.Keys, r.res.Aggs), nil
}

// gather materialises a selection as the hash join's input.
func gather(keys []int64, bm *column.Bitmap) join.Input {
	rows := bm.AppendPositions(nil)
	return join.Input{Keys: column.FetchRows(keys, rows), Rows: rows}
}

func (r *engineRung) join(o *op, bm *column.Bitmap) (int64, error) {
	dbm := column.GetBitmap(len(r.d.dimCols[0]))
	defer column.PutBitmap(dbm)
	if err := r.dim.exec.SelectBitmap(r.d.dimNames[1], o.dimLo, o.dimHi, dbm); err != nil {
		return 0, err
	}
	left, right := gather(r.d.cols[r.d.joinKey], bm), gather(r.d.dimCols[0], dbm)
	t0 := time.Now()
	n, _ := join.Hash(join.Op{Kind: join.OpCount}, left, right, nproc(), nil)
	r.hashNS += time.Since(t0).Nanoseconds()
	r.hashCalls++
	return n, nil
}

// ---- cracking --------------------------------------------------------

// crackingRung answers range reads from cracking.Column alone: a cracker
// column per attribute, built at the attribute's first touch as the engine
// does.
type crackingRung struct {
	d    *dataset
	seed int64
	mu   sync.Mutex
	cols []*cracking.Column
}

func newCrackingRung(d *dataset, seed int64) *crackingRung {
	return &crackingRung{d: d, seed: seed, cols: make([]*cracking.Column, len(d.cols))}
}

func (r *crackingRung) close() {}

func (r *crackingRung) column(a int) *cracking.Column {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cols[a] == nil {
		r.cols[a] = cracking.New(r.d.names[a], r.d.cols[a], crackConfig(r.seed))
	}
	return r.cols[a]
}

func (r *crackingRung) exec(o *op) (int64, error) {
	p := o.preds[0]
	switch o.kind {
	case kCount:
		return int64(r.column(p.attr).SelectRange(p.lo, p.hi).Count()), nil
	case kSum:
		_, s := r.column(p.attr).SelectSum(p.lo, p.hi)
		return s, nil
	}
	return 0, errSkip
}

// pieces reports the final piece count over all built columns and their mean
// piece size.
func (r *crackingRung) pieces() (total int, avg float64) {
	values := 0
	for _, c := range r.cols {
		if c != nil {
			total += c.Pieces()
			values += c.Len()
		}
	}
	if total > 0 {
		avg = float64(values) / float64(total)
	}
	return total, avg
}

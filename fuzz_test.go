package holistic

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"holistic/internal/durable"
	"holistic/internal/model"
	"holistic/internal/workload"
)

// A store program is a byte string decoded into operations on two
// relations, L(a, b, c) and R(k, w): CS165's operator list — writes,
// range selections, conjunctions, grouped aggregation, joins — plus the
// lifecycle of a durable store. FuzzStore runs one program in one of
// the seven modes, in memory or through OpenStore, and checks every
// answer and every error against internal/model.
//
// Encoding. A configuration byte (mode and durability, read by FuzzStore
// alone), then three header bytes: domain (low bits pick 8, 64, 2^10, 2^20
// or 2^40; the top bit puts MinInt64 and MaxInt64 into rows 0 and 1 of
// every L column), rows (16 + 8·(b mod 32) in L, half as many in R) and
// the data seed. Then one op after another, its kind the first byte mod
// numOps, its operands as decodeProgram reads them: an attribute is one
// byte, a value two (a tag and x; a literal takes eight more). The
// storeSeeds below spell their programs with the encoders just above
// them.
const (
	opInsert = iota
	opDelete
	opUpdate
	opRange      // CountRange, SumRange, MinMaxRange and SelectRows
	opConj       // Query: Count, Sum, Rows, Values, Min and Max
	opGrouped    // GroupBy over Count, Sum, Min and Max of one attribute
	opJoin       // L ⋈ R on k: Count, Sum(w), Pairs and GroupBy
	opCheckpoint // an error on a store with no data directory
	opCrash      // the k-th file operation from now fails
	opReopen     // Close, power cut, OpenStore on what survived
	opIdle       // k synchronous daemon cycles
	numOps
)

// A program's cost grows with its length, its rows and its daemon
// cycles, and TestStoreProgramClients runs it in two modes: these bounds
// keep one run a few milliseconds. The longest seed program is 31 ops.
const (
	maxProgramOps = 32
	maxIdleCycles = 8 // daemon cycles over all the idle ops of a program
)

// Value operand tags.
const (
	tagScaled  = iota // x/256 of the way into the domain
	tagHeld           // the value the (x mod n)-th live row of the attribute holds
	tagExtreme        // extremes[x mod 8]
	tagLit            // the next eight bytes, big-endian
)

var (
	domains  = [5]int64{8, 64, 1 << 10, 1 << 20, 1 << 40}
	extremes = [8]int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, -1, 0, 1 << 33, -(1 << 40)}
	// lNames decodes an L attribute byte: zz is the attribute L lacks.
	lNames = [7]string{"a", "b", "c", "a", "b", "c", "zz"}
	rNames = [2]string{"k", "w"}
)

type attrRef struct {
	rel  int // 0 is L, 1 is R
	name string
}

type value struct {
	tag, x byte
	lit    int64
}

type predSpec struct {
	attr   attrRef
	lo, hi value
}

type storeOp struct {
	kind   int
	attr   attrRef   // written or ranged; conj and grouped aggregate; join key
	keys   []attrRef // grouping keys; a join's group key
	preds  []predSpec
	rpreds []predSpec // R's conjuncts of a join, on w
	v, w   value
	k      int
	torn   bool
}

type program struct {
	rows     int
	domain   int64
	extremes bool
	seed     int64
	ops      []storeOp
}

type decoder struct{ b []byte }

func (d *decoder) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) lAttr() attrRef { return attrRef{0, lNames[d.next()%7]} }

// anyAttr reads an attribute of either relation: the top bit picks R.
func (d *decoder) anyAttr() attrRef {
	if x := d.next(); x&0x80 != 0 {
		return attrRef{1, rNames[x%2]}
	} else {
		return attrRef{0, lNames[x%7]}
	}
}

func (d *decoder) value() value {
	v := value{tag: d.next() % 4, x: d.next()}
	if v.tag == tagLit {
		for range 8 {
			v.lit = v.lit<<8 | int64(d.next())
		}
	}
	return v
}

func (d *decoder) pred(a attrRef) predSpec { return predSpec{a, d.value(), d.value()} }

func decodeProgram(b []byte) program {
	d := &decoder{b}
	dom := d.next()
	p := program{domain: domains[int(dom&0x7f)%len(domains)], extremes: dom&0x80 != 0}
	p.rows = 16 + 8*int(d.next()%32)
	p.seed = int64(d.next())
	idle := maxIdleCycles
	for len(d.b) > 0 && len(p.ops) < maxProgramOps {
		o := storeOp{kind: int(d.next() % numOps)}
		switch o.kind {
		case opInsert, opDelete:
			o.attr, o.v = d.anyAttr(), d.value()
		case opUpdate, opRange:
			o.attr, o.v, o.w = d.anyAttr(), d.value(), d.value()
		case opConj:
			for range 1 + d.next()%3 {
				o.preds = append(o.preds, d.pred(d.lAttr()))
			}
			o.attr = d.lAttr()
		case opGrouped:
			f := d.next()
			o.keys = []attrRef{d.lAttr()}
			if k := d.lAttr(); f%2 == 1 && k != o.keys[0] {
				o.keys = append(o.keys, k)
			}
			o.attr = d.lAttr()
			for range f / 2 % 3 {
				o.preds = append(o.preds, d.pred(d.lAttr()))
			}
		case opJoin:
			f := d.next()
			o.attr, o.keys = d.lAttr(), []attrRef{d.lAttr()}
			for range f % 2 {
				o.preds = append(o.preds, d.pred(d.lAttr()))
			}
			for range f / 2 % 2 {
				o.rpreds = append(o.rpreds, d.pred(attrRef{1, "w"}))
			}
		case opCrash:
			x := d.next()
			o.k, o.torn = 1+int(x%64), x&0x80 != 0
		case opIdle:
			o.k = min(1+int(d.next()%4), idle)
			idle -= o.k
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// fuzzConfig keeps the daemon's own loop asleep, so idle ops alone
// refine, and the file operations to the ones the program asks for.
func fuzzConfig(mode Mode) Config {
	return Config{
		Mode: mode, Threads: 2, OnlineEpoch: 2, L1CacheBytes: 64,
		TuningInterval: time.Hour, RefinementsPerWorker: 4, Seed: 1,
		WALSync: WALSyncAlways, SnapshotInterval: -1, FlightEvents: 64,
	}
}

func updatable(mode Mode) bool {
	return mode == ModeAdaptive || mode == ModeStochastic || mode == ModeHolistic
}

// run is one program on one mode: the two stores, their models and,
// for a durable run, the filesystem under L.
type run struct {
	t      testing.TB
	p      program
	cfg    Config
	fs     *durable.FaultFS // nil in memory
	l, r   *Store
	models [2]*model.Table
	mu     sync.Mutex // guards models when clients share the run
	dead   bool       // the kill point fired: nothing runs until a reopen
	tag    string
}

func newRun(t testing.TB, p program, cfg Config, durableRun bool) *run {
	r := &run{t: t, p: p, cfg: cfg, tag: fmt.Sprintf("%v durable=%v", cfg.Mode, durableRun)}
	var l [][]int64
	for i := range 3 {
		c := workload.UniformColumn(p.rows, p.domain, p.seed*8+int64(i))
		if p.extremes {
			c[0], c[1] = math.MinInt64, math.MaxInt64
		}
		l = append(l, c)
	}
	nr := p.rows/2 + 1
	rk, rw := workload.UniformColumn(nr, p.domain, p.seed*8+3), workload.UniformColumn(nr, 1000, p.seed*8+4)
	r.models = [2]*model.Table{model.New([]string{"a", "b", "c"}, l...), model.New(rNames[:], rk, rw)}
	if durableRun {
		r.fs = durable.NewFaultFS()
	}
	r.l, r.r = r.open(), NewStore(cfg)
	cols := [2][][]int64{l, {rk, rw}}
	for rel, s := range []*Store{r.l, r.r} {
		for i, name := range r.models[rel].Names() {
			if err := s.AddIntColumn(name, cols[rel][i]); err != nil {
				t.Fatal(err)
			}
		}
		s.Prepare() // a durable store commits its first snapshot here
	}
	return r
}

func (r *run) open() *Store {
	if r.fs == nil {
		return NewStore(r.cfg)
	}
	s, err := openStoreFS(r.fs, r.cfg)
	if err != nil {
		r.t.Fatalf("%s: open: %v", r.tag, err)
	}
	return s
}

func (r *run) close() {
	r.l.Close()
	r.r.Close()
}

func (r *run) store(rel int) *Store { return []*Store{r.l, r.r}[rel] }

// down reports whether the kill point has fired under L.
func (r *run) down() bool { return r.fs != nil && r.fs.Down() }

// val resolves a value operand for attribute a. Caller holds mu.
func (r *run) val(a attrRef, v value) int64 {
	switch v.tag {
	case tagScaled:
		return int64(v.x) * r.p.domain / 256
	case tagHeld:
		m := r.models[a.rel]
		rows := m.Rows(nil, a.name)
		if len(rows) == 0 {
			return 0
		}
		x, _ := m.Get(a.name, rows[int(v.x)%len(rows)])
		return x
	case tagExtreme:
		return extremes[v.x%8]
	}
	return v.lit
}

// preds resolves conjuncts. Caller holds mu.
func (r *run) preds(specs []predSpec) (out []model.Pred) {
	for _, s := range specs {
		out = append(out, model.Pred{Attr: s.attr.name, Lo: r.val(s.attr, s.lo), Hi: r.val(s.attr, s.hi)})
	}
	return out
}

// same fails the run unless the store's error and, without one, its
// answer agree with the model's.
func (r *run) same(ctx, what string, err, wantErr error, got, want any) {
	r.t.Helper()
	if (err != nil) != (wantErr != nil) {
		r.t.Fatalf("%s: %s: error %v, model %v", ctx, what, err, wantErr)
	}
	if err == nil && !equal(got, want) {
		r.t.Fatalf("%s: %s = %.300v, model %.300v", ctx, what, fmt.Sprint(got), fmt.Sprint(want))
	}
}

func equal(got, want any) bool {
	switch g := got.(type) {
	case []uint32:
		return slices.Equal(g, want.([]uint32))
	case [][]int64:
		return slices.EqualFunc(g, want.([][]int64), slices.Equal)
	}
	return fmt.Sprint(got) == fmt.Sprint(want)
}

func extrema(mn, mx int64, ok bool) string {
	if !ok {
		return "none"
	}
	return fmt.Sprint(mn, mx)
}

// checkAttrs is the model's error for a query naming attrs and the
// attributes of preds.
func checkAttrs(m *model.Table, preds []model.Pred, attrs ...string) error {
	for _, p := range preds {
		attrs = append(attrs, p.Attr)
	}
	return m.Check(attrs...)
}

// groups is a grouped result as the model returns it.
func groups(res *GroupedResult) [2][][]int64 {
	if res == nil {
		return [2][][]int64{}
	}
	return [2][][]int64{res.Keys, res.Aggs}
}

func where(q *Query, preds []model.Pred) *Query {
	for _, p := range preds {
		q = q.Where(p.Attr, p.Lo, p.Hi)
	}
	return q
}

// do runs op i. check off runs it for its side effects and races alone:
// the concurrent variant's shared lane, whose answers depend on timing.
func (r *run) do(i int, o storeOp, check bool) {
	r.t.Helper()
	if r.dead && o.kind != opReopen {
		return
	}
	ctx := fmt.Sprintf("%s: op %d %+v", r.tag, i, o)
	r.mu.Lock()
	v, w := r.val(o.attr, o.v), r.val(o.attr, o.w)
	preds, rpreds := r.preds(o.preds), r.preds(o.rpreds)
	r.mu.Unlock()
	switch o.kind {
	case opInsert, opDelete, opUpdate:
		r.write(ctx, o.kind, o.attr, v, w)
	case opRange:
		r.rangeOp(ctx, o.attr, v, w, check)
	case opConj:
		r.conj(ctx, preds, o.attr.name, check)
	case opGrouped:
		r.grouped(ctx, o, preds, check)
	case opJoin:
		r.join(ctx, o, preds, rpreds, check)
	case opCheckpoint:
		err := r.l.Checkpoint()
		if check && !r.down() && (err != nil) != (r.fs == nil) {
			r.t.Fatalf("%s: Checkpoint: %v", ctx, err)
		}
	case opCrash:
		if r.fs != nil {
			r.fs.KillAt(o.k, o.torn)
		}
	case opReopen:
		if r.fs == nil {
			return
		}
		r.l.Close()
		r.fs.Crash()
		r.dead = false
		r.l = r.open()
		if cols := r.l.Columns(); !slices.Equal(cols, r.models[0].Names()) {
			r.t.Fatalf("%s: reopened with columns %v", ctx, cols)
		}
		r.verifyAll(ctx)
	case opIdle:
		exec, err := r.l.executor()
		if err != nil {
			r.t.Fatalf("%s: %v", ctx, err)
		}
		if d := daemonOf(exec); d != nil {
			for range o.k {
				d.RunCycleNow(2)
			}
			if n := d.WorkerPanics(); n != 0 {
				r.t.Fatalf("%s: %d daemon worker panics, the last: %s", ctx, n, d.LastPanic())
			}
		}
	}
	if r.down() {
		r.dead = true
	}
}

// write runs one Insert, Delete or Update on the store and, once it is
// acknowledged, on the model. A mode without an update path refuses
// every write; a write refused as the kill point fires is lost.
func (r *run) write(ctx string, kind int, a attrRef, v, w int64) {
	r.t.Helper()
	s := r.store(a.rel)
	var err error
	switch kind {
	case opInsert:
		err = s.Insert(a.name, v)
	case opDelete:
		err = s.Delete(a.name, v)
	default:
		err = s.Update(a.name, v, w)
	}
	if !updatable(r.cfg.Mode) {
		if err == nil {
			r.t.Fatalf("%s: a %v store acknowledged a write", ctx, r.cfg.Mode)
		}
		return
	}
	if err != nil && a.rel == 0 && r.down() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[a.rel]
	var want error
	switch kind {
	case opInsert:
		want = m.Insert(a.name, v)
	case opDelete:
		want = m.Delete(a.name, v)
	default:
		want = m.Update(a.name, v, w)
	}
	r.same(ctx, "write", err, want, nil, nil)
}

// rangeOp checks the four single-predicate doors on [lo, hi).
func (r *run) rangeOp(ctx string, a attrRef, lo, hi int64, check bool) {
	r.t.Helper()
	s, m := r.store(a.rel), r.models[a.rel]
	p := []model.Pred{{Attr: a.name, Lo: lo, Hi: hi}}
	r.mu.Lock()
	wantErr, rows, sum := m.Check(a.name), m.Rows(p), m.Sum(a.name, p)
	mn, mx, ok := m.MinMax(a.name, p)
	r.mu.Unlock()
	n, err := s.CountRange(a.name, lo, hi)
	gs, serr := s.SumRange(a.name, lo, hi)
	gmn, gmx, gok, merr := s.MinMaxRange(a.name, lo, hi)
	got, rerr := s.SelectRows(a.name, lo, hi)
	if !check {
		return
	}
	slices.Sort(got)
	r.same(ctx, "CountRange", err, wantErr, n, len(rows))
	r.same(ctx, "SumRange", serr, wantErr, gs, sum)
	r.same(ctx, "MinMaxRange", merr, wantErr, extrema(gmn, gmx, gok), extrema(mn, mx, ok))
	r.same(ctx, "SelectRows", rerr, wantErr, got, rows)
}

func (r *run) conj(ctx string, preds []model.Pred, target string, check bool) {
	r.t.Helper()
	m := r.models[0]
	project := []string{target, preds[0].Attr}
	predErr, wantErr := checkAttrs(m, preds), checkAttrs(m, preds, target)
	r.mu.Lock()
	rows, sum := m.Rows(preds), m.Sum(target, preds)
	vals := m.Values(project, preds)
	mn, mx, ok := m.MinMax(target, preds)
	r.mu.Unlock()
	q := func() *Query { return where(r.l.Query(), preds) }
	n, err := q().Count()
	gs, serr := q().Sum(target)
	got, rerr := q().Rows()
	gvals, verr := q().Values(project...)
	gmn, mnOk, mnErr := q().Min(target)
	gmx, mxOk, mxErr := q().Max(target)
	if !check {
		return
	}
	r.same(ctx, "Count", err, predErr, n, len(rows))
	r.same(ctx, "Sum", serr, wantErr, gs, sum)
	r.same(ctx, "Rows", rerr, predErr, got, rows)
	r.same(ctx, "Values", verr, wantErr, gvals, vals)
	r.same(ctx, "Min", mnErr, wantErr, extrema(gmn, gmn, mnOk), extrema(mn, mn, ok))
	r.same(ctx, "Max", mxErr, wantErr, extrema(gmx, gmx, mxOk), extrema(mx, mx, ok))
}

func (r *run) grouped(ctx string, o storeOp, preds []model.Pred, check bool) {
	r.t.Helper()
	m, agg := r.models[0], o.attr.name
	var keys []string
	for _, k := range o.keys {
		keys = append(keys, k.name)
	}
	aggs := []model.Agg{{Kind: model.Count}, {Kind: model.Sum, Attr: agg}, {Kind: model.Min, Attr: agg}, {Kind: model.Max, Attr: agg}}
	r.mu.Lock()
	wantErr := checkAttrs(m, preds, append(keys, agg)...)
	wantKeys, wantAggs := m.Group(keys, aggs, m.Rows(preds))
	r.mu.Unlock()
	res, err := where(r.l.Query(), preds).GroupBy(keys...).Aggregate(Count(), Sum(agg), Min(agg), Max(agg))
	if !check {
		return
	}
	r.same(ctx, "GroupBy", err, wantErr, groups(res), [2][][]int64{wantKeys, wantAggs})
}

func (r *run) join(ctx string, o storeOp, preds, rpreds []model.Pred, check bool) {
	r.t.Helper()
	ml, mr := r.models[0], r.models[1]
	key, g := o.attr.name, o.keys[0].name
	aggs := []model.Agg{{Kind: model.Count}, {Kind: model.Sum, Attr: "r.w"}}
	r.mu.Lock()
	wantErr := checkAttrs(ml, preds, key)
	pairs, joined := model.Join(ml, key, ml.Rows(preds), mr, "k", mr.Rows(rpreds))
	sum := joined.Sum("r.w", nil)
	wantKeys, wantAggs := joined.Group([]string{"l." + g}, aggs, joined.Rows(nil))
	r.mu.Unlock()
	j := where(r.l.Query(), preds).Join(where(r.r.Query(), rpreds), key, "k")
	n, err := j.Count()
	gs, serr := j.Sum("w")
	pl, pr, perr := j.Pairs()
	res, gerr := j.GroupBy(g).Aggregate(Count(), Sum("w"))
	if !check {
		return
	}
	r.same(ctx, "Join Count", err, wantErr, n, len(pairs))
	r.same(ctx, "Join Sum", serr, wantErr, gs, sum)
	got := make([][2]uint32, len(pl))
	for i := range pl {
		got[i] = [2]uint32{pl[i], pr[i]}
	}
	if perr == nil && !slices.Equal(got, pairs) {
		r.t.Fatalf("%s: Join Pairs: %d pairs, model %d, or different ones", ctx, len(got), len(pairs))
	}
	r.same(ctx, "Join Pairs", perr, wantErr, nil, nil)
	r.same(ctx, "Join GroupBy", gerr, checkAttrs(ml, preds, key, g), groups(res), [2][][]int64{wantKeys, wantAggs})
}

// verifyAll checks every attribute of both relations over all of int64
// but MaxInt64.
func (r *run) verifyAll(ctx string) {
	r.t.Helper()
	for rel, m := range r.models {
		for _, name := range m.Names() {
			r.rangeOp(ctx+" (verify)", attrRef{rel, name}, math.MinInt64, math.MaxInt64, true)
		}
	}
}

func runProgram(t testing.TB, p program, mode Mode, durableRun bool) {
	r := newRun(t, p, fuzzConfig(mode), durableRun)
	defer r.close()
	for i, o := range p.ops {
		r.do(i, o, true)
	}
	if !r.dead {
		r.verifyAll(r.tag + ": end")
	}
}

// FuzzStore is the one differential of the store: every program against
// the model, in one of fourteen configurations — seven modes, in memory
// or durable — named by the input's first byte, so each fuzzing exec runs
// one program once. Every seed program is added once per configuration:
// `go test` still runs each seed in all fourteen. A failure names mode
// and durability.
func FuzzStore(f *testing.F) {
	configs := 2 * len(sevenModes)
	for _, s := range storeSeeds {
		for c := range configs {
			f.Add(append([]byte{byte(c)}, s.prog...))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c byte
		if len(b) > 0 {
			c, b = b[0], b[1:]
		}
		k := int(c) % configs
		runProgram(t, decodeProgram(b), sevenModes[k/2], k%2 == 1)
	})
}

// TestStoreProgramClients is FuzzStore's concurrent variant over the
// seed programs: a durable store with the daemon's own loop running and a
// checkpointer looping, each attribute's writes and range reads on a
// client of their own, checked as they go — nobody else writes that
// attribute — and the remaining reads on one more client, checked once
// every client is done. Crash and reopen ops are left out: they need
// every client stopped. A client may fail the test: FailNow marks it
// done before it ends the goroutine.
func TestStoreProgramClients(t *testing.T) {
	for _, sd := range storeSeeds {
		t.Run(sd.name, func(t *testing.T) {
			p := decodeProgram(sd.prog)
			for _, mode := range []Mode{ModeAdaptive, ModeHolistic} {
				cfg := fuzzConfig(mode)
				cfg.TuningInterval = time.Millisecond
				r := newRun(t, p, cfg, true)
				lanes := map[attrRef][]int{}
				var shared []int
				for i, o := range p.ops {
					switch o.kind {
					case opInsert, opDelete, opUpdate, opRange:
						lanes[o.attr] = append(lanes[o.attr], i)
					case opConj, opGrouped, opJoin, opCheckpoint, opIdle:
						shared = append(shared, i)
					}
				}
				stop, ckErr := make(chan struct{}), make(chan error, 1)
				go func() {
					for {
						select {
						case <-stop:
							ckErr <- nil
							return
						default:
						}
						if err := r.l.Checkpoint(); err != nil {
							ckErr <- err
							return
						}
					}
				}()
				var wg sync.WaitGroup
				for _, lane := range lanes {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, i := range lane {
							r.do(i, p.ops[i], true)
						}
					}()
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, i := range shared {
						r.do(i, p.ops[i], false)
					}
				}()
				wg.Wait()
				close(stop)
				if err := <-ckErr; err != nil {
					t.Fatalf("%v: checkpoint beside the clients: %v", mode, err)
				}
				if !t.Failed() {
					for _, i := range shared {
						r.do(i, p.ops[i], true)
					}
					r.verifyAll(r.tag + ": end")
				}
				r.close()
			}
		})
	}
}

// The encoders the seed programs are spelled with: each returns the
// bytes decodeProgram reads back as that op or operand.

func cat(parts ...[]byte) []byte { return slices.Concat(parts...) }

// prog is a program over data of domain class dom (an index into
// domains, plus 0x80 for the extremes), 16 + 8·(rows mod 32) rows and seed.
func prog(dom, rows, seed byte, ops ...[]byte) []byte {
	return cat(append([][]byte{{dom, rows, seed}}, ops...)...)
}

// code is the attribute byte of name.
func code(name string) byte {
	switch name {
	case "k":
		return 0x80
	case "w":
		return 0x81
	case "zz":
		return 6
	}
	return byte(slices.Index(lNames[:], name))
}

func at(x byte) []byte              { return []byte{tagScaled, x} }
func held(x byte) []byte            { return []byte{tagHeld, x} }
func extreme(i byte) []byte         { return []byte{tagExtreme, i} }
func lit(v int64) []byte            { return binary.BigEndian.AppendUint64([]byte{tagLit, 0}, uint64(v)) }
func ins(a string, v []byte) []byte { return cat([]byte{opInsert, code(a)}, v) }
func del(a string, v []byte) []byte { return cat([]byte{opDelete, code(a)}, v) }
func upd(a string, v, w []byte) []byte {
	return cat([]byte{opUpdate, code(a)}, v, w)
}
func rng(a string, lo, hi []byte) []byte { return cat([]byte{opRange, code(a)}, lo, hi) }

// p is one conjunct of conj, grouped and join.
func p(a string, lo, hi []byte) []byte { return cat([]byte{code(a)}, lo, hi) }

func conj(target string, preds ...[]byte) []byte {
	return cat([]byte{opConj, byte(len(preds) - 1)}, cat(preds...), []byte{code(target)})
}

// grouped groups by keys (one or two) aggregating agg under preds (at
// most two).
func grouped(keys []string, agg string, preds ...[]byte) []byte {
	second := keys[0]
	if len(keys) > 1 {
		second = keys[1]
	}
	f := byte(len(keys)-1) | byte(len(preds))<<1
	return cat([]byte{opGrouped, f, code(keys[0]), code(second), code(agg)}, cat(preds...))
}

// joinOn joins L.key with R.k, grouping by L.g; lp is at most one L
// conjunct, wLoHi at most one range on R.w as two value operands.
func joinOn(key, g string, lp []byte, wLoHi ...[]byte) []byte {
	f := byte(0)
	if lp != nil {
		f |= 1
	}
	if len(wLoHi) > 0 {
		f |= 2
	}
	return cat([]byte{opJoin, f, code(key), code(g)}, lp, cat(wLoHi...))
}

var (
	checkpoint = []byte{opCheckpoint}
	reopen     = []byte{opReopen}
)

// crash arms the kill point k file operations from now (1 to 64).
func crash(k byte, torn bool) []byte {
	x := k - 1
	if torn {
		x |= 0x80
	}
	return []byte{opCrash, x}
}

func idle(k byte) []byte { return []byte{opIdle, k - 1} }

// storeSeeds are the seed corpus of FuzzStore and the programs of
// TestStoreProgramClients.
var storeSeeds = []struct {
	name string
	prog []byte
}{
	// Conjunctions of one to three conjuncts with writes between them:
	// drives at about 1 % and 50 % of the rows, either side of the
	// bitmap crossover; duplicated values inserted, then deleted, so a
	// delete must take the lowest live row; repeated attributes
	// intersecting, an inverted range, an unknown attribute.
	{"conjunctive", prog(3, 62, 1,
		conj("a", p("a", at(10), at(13)), p("b", at(0), at(200))),
		conj("b", p("a", at(0), at(128)), p("b", at(20), at(250)), p("c", at(0), at(255))),
		ins("a", held(5)),
		conj("c", p("a", at(0), at(255))),
		conj("a", p("b", at(40), at(42))),
		del("a", held(5)),
		upd("b", held(9), at(77)),
		conj("a", p("b", at(70), at(90)), p("a", at(0), at(250))),
		ins("c", at(33)), del("c", held(0)), upd("a", held(100), at(3)),
		conj("c", p("a", at(200), at(100)), p("b", at(0), at(255))),
		conj("a", p("a", at(10), at(200)), p("a", at(50), at(255)), p("b", at(0), at(128))),
		conj("a", p("zz", at(0), at(10))),
		ins("b", at(9)), ins("b", at(19)),
		conj("b", p("b", at(0), at(255)), p("c", at(0), at(255))),
		del("a", lit(-5)),
	)},
	// Grouped aggregation over a 64-value domain: one and two keys, zero
	// to two conjuncts, a key that is also the aggregate, writes that
	// leave rows without a value in some attributes, unknown attributes.
	{"grouped", prog(1, 40, 2,
		grouped([]string{"a"}, "b"),
		grouped([]string{"a", "b"}, "c", p("c", at(0), at(128))),
		ins("a", at(7)), del("b", held(3)), upd("c", held(4), at(200)),
		grouped([]string{"c"}, "a", p("a", at(0), at(200)), p("b", at(30), at(255))),
		grouped([]string{"b"}, "b"),
		ins("b", at(1)), ins("b", at(1)),
		grouped([]string{"b", "a"}, "c"),
		grouped([]string{"zz"}, "a"),
		grouped([]string{"a"}, "zz"),
		grouped([]string{"a"}, "c", p("a", at(200), at(10))),
	)},
	// Joins of L and R on a 64-value key, with and without conjuncts on
	// either side, writes to both relations between them.
	{"joins", prog(1, 30, 3,
		joinOn("a", "b", nil),
		joinOn("a", "c", p("b", at(0), at(128)), at(0), at(128)),
		ins("k", held(2)), ins("w", at(3)), del("k", held(0)), upd("w", held(1), at(9)),
		ins("a", held(7)), del("a", held(8)), upd("b", held(1), at(255)),
		joinOn("a", "b", nil, at(64), at(255)),
		joinOn("b", "a", p("c", at(128), at(255))),
		joinOn("zz", "a", nil),
		rng("k", at(0), at(128)), rng("w", extreme(0), extreme(1)),
		del("w", lit(-1)),
	)},
	// The four range doors, with inserts landing inside and outside
	// earlier ranges, and the errors of unknown attributes and values
	// nobody holds.
	{"aggregate", prog(2, 62, 4,
		rng("a", at(10), at(100)), rng("b", at(0), at(255)),
		ins("a", at(50)), rng("a", at(40), at(60)),
		ins("b", held(0)), rng("b", held(0), at(255)),
		rng("c", at(128), at(129)), ins("c", at(128)), rng("c", at(128), at(129)),
		rng("zz", at(0), at(1)), ins("zz", at(1)),
		del("a", lit(5000)), upd("c", lit(5000), at(1)),
	)},
	// A column whose values pack with their rowids, taking MinInt64,
	// MaxInt64 and a value 2^33 out each behind a pending delete: every
	// read across the widening, ranges bounded by the extremes.
	{"layout-widens", prog(3, 62, 5,
		rng("a", at(0), at(64)), rng("b", at(0), at(255)),
		del("a", held(3)), ins("a", extreme(0)),
		rng("a", extreme(0), extreme(1)),
		del("a", held(7)), ins("a", extreme(1)),
		rng("a", extreme(0), extreme(1)), rng("a", extreme(3), extreme(1)),
		del("a", held(9)), ins("a", extreme(6)),
		rng("a", at(0), extreme(1)),
		conj("a", p("a", extreme(0), extreme(1)), p("b", at(0), at(128))),
		upd("a", extreme(0), at(5)), del("a", extreme(1)),
		rng("a", extreme(0), at(128)), idle(2),
	)},
	// The same on columns holding MinInt64 and MaxInt64 from the start,
	// which cannot pack.
	{"layout-cannot-pack", prog(3|0x80, 62, 6,
		rng("a", at(0), at(64)), rng("a", extreme(0), extreme(1)),
		ins("a", at(9)), del("a", extreme(0)),
		rng("a", extreme(0), at(100)),
		conj("b", p("a", extreme(0), at(128)), p("b", at(0), extreme(1))),
		upd("a", extreme(1), extreme(0)),
		rng("a", extreme(0), extreme(2)), idle(2),
		rng("a", extreme(0), extreme(1)),
	)},
	// Inverted and empty ranges through every form, before and after
	// the online mode's epoch of two queries sorts.
	{"degenerate", prog(2, 0, 7,
		rng("a", at(200), at(50)), rng("a", at(100), at(100)), rng("a", extreme(1), extreme(0)),
		conj("a", p("a", at(200), at(50))),
		rng("a", at(50), at(200)),
		rng("a", at(200), at(50)), rng("b", extreme(1), extreme(0)),
		conj("b", p("b", at(100), at(100)), p("a", at(0), at(255))),
		rng("a", at(50), at(200)), rng("a", extreme(1), extreme(0)),
		grouped([]string{"a"}, "b", p("b", at(9), at(3))),
		joinOn("a", "b", p("a", at(9), at(3))),
	)},
	// The pivot draw over a domain of 2^64 values: MinInt64 and MaxInt64
	// merged into a cracked column, then the daemon refines it.
	{"pivot-2^63", prog(3, 62, 8,
		rng("a", at(0), at(128)),
		ins("a", extreme(0)), ins("a", extreme(1)),
		rng("a", extreme(0), extreme(1)),
		idle(4),
		rng("a", at(10), at(20)),
	)},
	// Kill points armed between writes and checkpoints, clean and torn,
	// each followed by a reopen on what survived; one fires inside Close.
	{"crash-reopen", prog(2, 30, 9,
		rng("a", at(0), at(128)), ins("a", at(1)), del("b", held(2)),
		checkpoint,
		upd("c", held(3), at(4)),
		crash(3, false),
		ins("a", at(5)), ins("b", at(6)), upd("a", held(7), at(8)), checkpoint,
		reopen,
		rng("a", at(0), at(255)), ins("c", at(9)),
		crash(1, true), del("a", held(1)),
		reopen,
		crash(6, true), checkpoint, ins("a", at(10)),
		reopen,
		ins("b", at(11)), crash(2, false),
		reopen,
		conj("a", p("a", at(0), at(128)), p("b", at(0), at(200))),
		grouped([]string{"c"}, "a"),
		joinOn("a", "b", nil),
		crash(1, false), ins("a", at(12)), idle(1),
		reopen, reopen,
	)},
	// Refinement in idle time between queries: pending writes the
	// daemon merges, the reads after it.
	{"idle", prog(3, 62, 10,
		rng("a", at(0), at(128)), rng("b", at(64), at(192)),
		idle(4),
		ins("a", held(1)), ins("a", at(17)), del("a", held(2)), upd("a", held(3), at(250)),
		idle(4),
		rng("a", extreme(0), extreme(1)),
		idle(2),
		conj("a", p("a", at(0), at(128)), p("b", at(0), at(64))),
		grouped([]string{"a"}, "b", p("b", at(0), at(128))),
	)},
	// Residual conjuncts selected through their own index: b and c
	// cracked on the bounds the conjunctions filter them by, then inserts
	// (into a and b, so the new rows are candidates), deletes and updates
	// — one moving a row out of range, one into it — left pending on them
	// before two- and three-conjunct counts, sums and groupings driven by
	// a, and again after the first reads merged them.
	{"residual-index", prog(3, 62, 12,
		rng("b", at(16), at(240)), rng("c", at(8), at(248)),
		ins("a", at(20)), ins("b", at(100)), ins("a", at(30)), ins("b", held(3)),
		del("b", held(5)), upd("b", held(7), at(250)), upd("b", held(9), at(60)),
		ins("c", at(50)), del("c", held(1)), upd("c", held(2), at(4)),
		conj("b", p("a", at(0), at(128)), p("b", at(16), at(240))),
		conj("c", p("a", at(0), at(128)), p("b", at(16), at(240)), p("c", at(8), at(248))),
		grouped([]string{"c"}, "b", p("a", at(0), at(128)), p("b", at(16), at(240))),
		ins("a", at(40)), ins("b", at(200)), ins("c", at(100)),
		del("b", held(11)), upd("c", held(12), at(250)),
		conj("b", p("a", at(0), at(128)), p("b", at(16), at(240)), p("c", at(8), at(248))),
		grouped([]string{"a"}, "c", p("a", at(0), at(128)), p("c", at(8), at(248))),
	)},
	// Eight values over 80 rows: deletes of a value until nobody holds
	// it, then the errors.
	{"duplicates", prog(0, 8, 11,
		del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)),
		del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)),
		del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)), del("a", at(0)),
		rng("a", at(0), at(64)),
		upd("b", at(32), at(0)), upd("b", at(32), at(0)),
		grouped([]string{"a", "b"}, "a", p("a", at(0), at(255))),
		conj("a", p("a", at(0), at(255))),
		joinOn("b", "a", nil),
	)},
}

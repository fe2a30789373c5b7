// Package join is the equi-join subsystem: fused join plans over the
// selection vectors the conjunctive query runner produces, with two
// physical strategies picked per query from each side's filtered
// cardinality and index statistics — the operator-completeness step the
// holistic processing model needs (MorphStore, arXiv:2004.09350) so
// that multi-relation analytics ride the partial indexes idle cores
// keep refining:
//
//   - Hash (hash.go): a table over the build side — always the smaller
//     filtered cardinality, so it stays cache-resident — whose slots
//     hold one distinct key each with a running count, an optional
//     payload sum and a duplicate chain. Dense build keys (a span no
//     larger than the slot arena hashing would take) address their
//     slot directly by key − min; sparse ones are scattered into
//     hash-disjoint partitions, each with its own linear-probing table
//     over one shared slot arena. The probe side streams through in
//     parallel chunks; the count and sum terminals fold per-slot
//     aggregates without ever walking duplicate chains, and the whole
//     path runs through pooled scratch: a steady-state count is
//     allocation-free.
//
//   - Merge (merge.go): an index-clustered merge join. Both sides
//     stream in ascending key-cluster order (Executor.WalkKeyOrder:
//     sorted runs, or cracker pieces with pending updates merged
//     first), the smaller side's clusters are buffered once, and the
//     cluster value ranges are intersected as the larger side walks:
//     only overlapping cluster pairs touch each other, each pair joins
//     through a small dense accumulator offset by the intersection
//     minimum (refined clusters always fit — the holistic payoff), and
//     no hash table over either relation exists at any point.
//
// Rows flow through update-aware column.Views, so joins observe each
// relation's current logical state; rows without a value in the join
// attribute (inserted elsewhere, or deleted) never match, mirroring the
// SQL NULL semantics of the rest of the query subsystem. Matched pairs
// can be materialized (Pairs) or fed straight into the grouped-
// aggregation subsystem (Grouped) for join→group pipelines.
package join

import (
	"fmt"
	"sync"

	"holistic/internal/column"
	"holistic/internal/groupby"
)

// Side names one input of a join; terminals and grouped columns use it
// to say which relation an attribute comes from.
type Side int

const (
	// Left is the left input relation.
	Left Side = iota
	// Right is the right input relation.
	Right
)

// String names the side.
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// OpKind enumerates the join terminals the kernels execute directly.
type OpKind int

const (
	// OpCount counts the matching pairs.
	OpCount OpKind = iota
	// OpSum sums one side's payload values over the matching pairs (a
	// row matching k rows of the other side contributes its value k
	// times).
	OpSum
	// OpPairs materializes the matching (left row, right row) pairs.
	OpPairs
)

// Op describes one join execution's terminal.
type Op struct {
	Kind OpKind
	// SumSide says which side's payload feeds OpSum (that side's Input
	// must carry Vals, or its Stream a payload View).
	SumSide Side
}

// Pairs holds materialized join matches: Left[i] joined Right[i]. The
// storage is reused across executions when the caller passes the same
// Pairs back in. Order is unspecified (the grouped consumer does not
// care; callers that do must sort).
type Pairs struct {
	Left, Right column.PosList
}

// Len returns the number of matched pairs.
func (p *Pairs) Len() int { return len(p.Left) }

//holistic:noalloc
func (p *Pairs) reset() {
	p.Left = p.Left[:0]
	p.Right = p.Right[:0]
}

var pairsPool = sync.Pool{New: func() any { return new(Pairs) }}

// GetPairs borrows a pooled, emptied Pairs.
//
//holistic:alloc-ok pool warm-up allocates the recycled object
func GetPairs() *Pairs {
	p := pairsPool.Get().(*Pairs)
	p.reset()
	return p
}

// PutPairs recycles a Pairs obtained from GetPairs; the caller must
// not retain it or its slices.
//
//holistic:noalloc
func PutPairs(p *Pairs) {
	if p != nil {
		pairsPool.Put(p)
	}
}

// Input is one gathered side of a hash join: the join-key values of the
// side's selected rows with the aligned base row ids, and — for OpSum
// on this side — the aligned payload values.
type Input struct {
	Keys []int64
	Rows []uint32
	Vals []int64
}

// Stream is one side of a merge join: a key-ordered cluster stream
// (Executor.WalkKeyOrder's contract — cluster value sets disjoint and
// ascending, values within one cluster unordered), the selection
// bitmap rows must pass (nil selects every streamed row), an
// update-aware payload view for OpSum on this side, and the side's
// selected cardinality (the build-side choice).
type Stream struct {
	// Walk streams the clusters; it returns false (without calling fn)
	// when the side has no key-ordered access path, in which case Merge
	// reports ok=false and the caller falls back to the hash join.
	Walk  func(fn func(vals []int64, rows []uint32)) bool
	Sel   *column.Bitmap
	Vals  column.View
	Count int
}

// DefaultMergeSpan bounds the per-cluster-pair dense accumulator of the
// merge join, mirroring groupby.DefaultClusterSlots: an intersection
// whose value span fits joins through dense arrays offset by the
// intersection minimum; wider pairs — unrefined indexes — fall back to
// a small open-addressing table scoped to the pair.
const DefaultMergeSpan = 1 << 16

// PairCol addresses one attribute of the join result: the side it
// lives on and its update-aware view. The grouped terminal gathers it
// at the pair's row on that side.
type PairCol struct {
	Side Side
	View column.View
}

//holistic:noalloc
func (pc PairCol) rows(p *Pairs) column.PosList {
	if pc.Side == Right {
		return p.Right
	}
	return p.Left
}

// Grouped executes a fused grouped-aggregation plan over materialized
// join pairs: group keys and aggregate inputs are gathered from either
// side (PairCol) into pair-aligned columns, keyBounds[i] is key i's
// inclusive value domain (it drives the dense/hash accumulator choice
// exactly as in internal/groupby), and the ordered result lands in res.
// The gathered columns are grouped as one all-ones bitmap selection,
// which the grouping core folds in place. Every referenced attribute
// must have a value at every paired row (the query runner's pre-join
// selection pipeline presence-filters each side's referenced
// attributes).
//
//holistic:alloc-ok per-call plan and gathered columns; the fused accumulators it feeds are noalloc
func Grouped(p *Pairs, keys []PairCol, keyBounds [][2]int64, aggs []groupby.Agg, aggCols []PairCol, res *groupby.Result) error {
	if len(keys) != len(keyBounds) {
		return fmt.Errorf("join: %d key bounds for %d keys", len(keyBounds), len(keys))
	}
	if len(aggs) != len(aggCols) {
		return fmt.Errorf("join: %d aggregate columns for %d aggregates", len(aggCols), len(aggs))
	}
	spec := &groupby.Spec{Keys: make([]groupby.Key, len(keys)), Aggs: aggs, AggViews: make([]column.View, len(aggs))}
	for i, pc := range keys {
		spec.Keys[i] = groupby.Key{
			View: column.View{Base: pc.View.GatherRows(nil, pc.rows(p))},
			Lo:   keyBounds[i][0], Hi: keyBounds[i][1],
		}
	}
	for i, a := range aggs {
		if a.Kind != groupby.KindCount {
			pc := aggCols[i]
			spec.AggViews[i] = column.View{Base: pc.View.GatherRows(nil, pc.rows(p))}
		}
	}
	all := column.GetBitmap(p.Len())
	defer column.PutBitmap(all)
	all.SetRange(0, p.Len())
	return groupby.GroupBitmap(spec, all, res)
}

// splitmix64 is the avalanche finalizer of the splitmix64 generator —
// the hash both join kernels key on (partition id from the top bits,
// slot index from the bottom bits, so the two are independent).
//
//holistic:noalloc
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pow2 returns the smallest power of two >= n (minimum 1).
//
//holistic:noalloc
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

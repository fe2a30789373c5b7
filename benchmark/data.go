package main

import (
	"fmt"

	"holistic/internal/workload"
)

// dataset is the generated input of one run: the main store's columns and,
// on analytic-mix, the join partner's. The program under test only ever sees
// these slices; the seed stays in the benchmark.
type dataset struct {
	names []string
	cols  [][]int64
	// uniform is how many leading attributes are uniform over the domain —
	// the ones range predicates are drawn on.
	uniform int

	// Analytic class only: positions of the join key and the two group keys
	// in cols, and the join partner ("dim": unique key k, uniform payload v).
	joinKey   int
	groupKeys []int
	dimNames  []string
	dimCols   [][]int64
}

func (d *dataset) rows() int { return len(d.cols[0]) }

// rawBytes is the user data of the main store, the base of mem_ratio and
// durable.disk_bytes_per_user_byte.
func (d *dataset) rawBytes() int64 { return int64(len(d.cols)) * int64(d.rows()) * 8 }

const (
	dimRowsDiv = 32   // dim rows = main rows / 32
	groupsWide = 64   // g0: 64 zipf-skewed groups
	groupsTiny = 8    // g1: 8 uniform groups
	groupSkew  = 1.1  // zipf exponent of g0's group sizes
	joinShare  = 0.9  // share of dim keys the main side can match
	dimKeep    = 0.5  // share of the domain the dim-side filter keeps
	sampleRate = 0.05 // share of conjunctive/grouped/join answers brute-forced
)

func generate(w workloadDef, seed int64) *dataset {
	d := &dataset{joinKey: -1}
	add := func(name string, vals []int64) int {
		d.names = append(d.names, name)
		d.cols = append(d.cols, vals)
		return len(d.cols) - 1
	}
	if w.Class != classAnalytic {
		for i := 0; i < w.Attrs; i++ {
			add(fmt.Sprintf("a%d", i), workload.UniformColumn(w.Rows, domain, seed*31+int64(i)))
		}
		d.uniform = w.Attrs
		return d
	}
	// Six attributes: three uniform predicate attributes, the join key and
	// two low-cardinality group keys.
	d.uniform = w.Attrs - 3
	for i := 0; i < d.uniform; i++ {
		add(fmt.Sprintf("a%d", i), workload.UniformColumn(w.Rows, domain, seed*31+int64(i)))
	}
	dimRows := w.Rows / dimRowsDiv
	if dimRows < 64 {
		dimRows = 64
	}
	// GenerateJoin's left side has unique keys, its right side repeats
	// them: the dim store is the left, the main store the right.
	dimKeys, mainKeys := workload.GenerateJoin(workload.JoinConfig{
		LeftRows: dimRows, RightRows: w.Rows, Keys: dimRows,
		Overlap: joinShare, Fan: workload.FanOneToMany, Seed: seed*31 + 17,
	})
	d.joinKey = add("jk", mainKeys)
	d.groupKeys = []int{
		add("g0", workload.GroupKeyColumn(w.Rows, groupsWide, groupSkew, seed*31+18)),
		add("g1", workload.GroupKeyColumn(w.Rows, groupsTiny, 0, seed*31+19)),
	}
	d.dimNames = []string{"k", "v"}
	d.dimCols = [][]int64{dimKeys, workload.UniformColumn(len(dimKeys), domain, seed*31+20)}
	return d
}

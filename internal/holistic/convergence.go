// Convergence telemetry: a JSON-ready snapshot of how far the daemon has
// pushed each index toward its optimal state, plus the cumulative
// refinement counters — the payload behind Store.Metrics and the
// /debug/holistic endpoint.

package holistic

// IndexConvergence describes one index's refinement progress.
type IndexConvergence struct {
	Name string `json:"name"`
	// State is the configuration: "actual", "potential" or "optimal".
	State string `json:"state"`
	// Pieces is the current partition count of the cracker column.
	Pieces int `json:"pieces"`
	// AvgPieceSize is N/p in values; Distance is d(I,Iopt) = N/p - |L1|
	// clamped at zero (Equation 1).
	AvgPieceSize float64 `json:"avg_piece_size"`
	Distance     float64 `json:"distance"`
	// Accesses is fI, Hits fIh.
	Accesses int64 `json:"accesses"`
	Hits     int64 `json:"hits"`
	// Progress is 1 - d/d0 where d0 is the distance of the unrefined
	// column (N - |L1|): 0 = untouched, 1 = optimal (stats.Progress).
	Progress float64 `json:"progress"`
	// InvestedNS is the daemon's wall time spent refining the index,
	// Refinements its successful refinements of it. Whether that time
	// paid off is not read here but measured by a paired A/B against
	// ModeAdaptive (holistic.session_delta_s).
	InvestedNS  int64 `json:"invested_ns"`
	Refinements int64 `json:"refinements"`
}

// Convergence is the daemon-side metrics snapshot.
type Convergence struct {
	// L1Values is |L1|, the target average piece size.
	L1Values int `json:"l1_values"`
	// Strategy is the active index-decision strategy (W1-W4).
	Strategy string `json:"strategy"`
	// Indexes lists per-index progress, name-ordered.
	Indexes []IndexConvergence `json:"indexes"`
	// Refinements counts successful refinement actions, Attempts all
	// pivot attempts including re-rolls, BusyRerolls the latch-contention
	// re-rolls of Figure 3.
	Refinements int64 `json:"refinements"`
	Attempts    int64 `json:"attempts"`
	BusyRerolls int64 `json:"busy_rerolls"`
	// WorkerPanics counts contained worker/hook panics; LastPanic is
	// the most recent reason.
	WorkerPanics int64  `json:"worker_panics"`
	LastPanic    string `json:"last_panic,omitempty"`
	// Totals aggregates every tuning cycle ever run.
	Totals CycleTotals `json:"cycle_totals"`
	// Ratio is the mean per-index Progress: 1.0 once the whole index
	// space is optimal.
	Ratio float64 `json:"convergence_ratio"`
}

// Convergence snapshots the daemon's refinement state. Cold path; safe
// to call concurrently with tuning cycles and user queries.
func (d *Daemon) Convergence() *Convergence {
	l1 := d.reg.L1Values()
	entries := d.reg.Entries()
	totals := d.CycleTotals()
	c := &Convergence{
		L1Values:     l1,
		Strategy:     d.cfg.Strategy.String(),
		Indexes:      make([]IndexConvergence, 0, len(entries)),
		Refinements:  totals.Refinements,
		Attempts:     d.Attempts(),
		BusyRerolls:  d.BusyRerolls(),
		WorkerPanics: d.WorkerPanics(),
		LastPanic:    d.LastPanic(),
		Totals:       totals,
	}
	var sum float64
	for _, e := range entries {
		// State before progress: Optimal is final and Progress reads it,
		// so an index reported optimal is reported at progress 1.
		state := e.State()
		progress := d.reg.Progress(e)
		sum += progress
		c.Indexes = append(c.Indexes, IndexConvergence{
			Name:         e.Name,
			State:        state.String(),
			Pieces:       e.Col.Pieces(),
			AvgPieceSize: e.Col.AvgPieceSize(),
			Distance:     d.reg.Distance(e),
			Accesses:     e.Accesses(),
			Hits:         e.Hits(),
			Progress:     progress,
			InvestedNS:   e.InvestedNS(),
			Refinements:  e.Refinements(),
		})
	}
	if len(entries) > 0 {
		c.Ratio = sum / float64(len(entries))
	}
	return c
}

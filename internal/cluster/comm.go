package cluster

// CommStats splits interconnect traffic by phase and encoding, so the
// 2D-vs-1D communication-volume claim is directly measurable: the
// bottom-up allgather bucket is the one that grows with P on a 1D layout
// but with sqrt(P) on a square grid. All counts are encoded wire bytes —
// what appendBitmap/appendList/appendPairs actually produced — so the
// compressed-vs-raw comparison measures the real codec, not a model.
type CommStats struct {
	// TDFrontier counts top-down frontier distribution: sparse vertex
	// lists allgathered down processor columns (2D only; the 1D layout's
	// top-down frontier is owner-local).
	TDFrontier int64 `json:"td_frontier_bytes"`
	// TDCandidate counts top-down candidate (child, parent) exchanges:
	// all-to-all on the 1D layout, across processor rows on the grid.
	TDCandidate int64 `json:"td_candidate_bytes"`
	// BUAllgather counts bottom-up frontier bitmap allgathers: across all
	// P machines on the 1D layout, down R-machine columns on the grid.
	BUAllgather int64 `json:"bu_allgather_bytes"`
	// BURing counts the grid's rotating claim-state shifts within rows.
	BURing int64 `json:"bu_ring_bytes"`
	// Control counts allreduces (frontier counts, termination votes).
	Control int64 `json:"control_bytes"`
}

// Total is the run's total interconnect traffic.
func (s CommStats) Total() int64 {
	return s.TDFrontier + s.TDCandidate + s.BUAllgather + s.BURing + s.Control
}

// TopDownBytes groups the top-down phase's traffic.
func (s CommStats) TopDownBytes() int64 { return s.TDFrontier + s.TDCandidate }

// Add returns s plus o, phase by phase.
func (s CommStats) Add(o CommStats) CommStats {
	return CommStats{
		TDFrontier:  s.TDFrontier + o.TDFrontier,
		TDCandidate: s.TDCandidate + o.TDCandidate,
		BUAllgather: s.BUAllgather + o.BUAllgather,
		BURing:      s.BURing + o.BURing,
		Control:     s.Control + o.Control,
	}
}

func (s CommStats) sub(o CommStats) CommStats {
	return CommStats{
		TDFrontier:  s.TDFrontier - o.TDFrontier,
		TDCandidate: s.TDCandidate - o.TDCandidate,
		BUAllgather: s.BUAllgather - o.BUAllgather,
		BURing:      s.BURing - o.BURing,
		Control:     s.Control - o.Control,
	}
}

// runJobsErr runs fn(0..jobs-1) in order and returns the lowest-indexed
// error. Every job runs even after one fails: stopping early would leave the
// later machines' clocks short of where the level's work put them.
func runJobsErr(jobs int, fn func(job int) error) error {
	var first error
	for j := range jobs {
		if err := fn(j); err != nil && first == nil {
			first = err
		}
	}
	return first
}

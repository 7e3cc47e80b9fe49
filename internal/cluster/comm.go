package cluster

import (
	"math/bits"
	"sync"

	"semibfs/internal/bitmap"
)

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

func (s CommStats) sub(o CommStats) CommStats {
	return CommStats{
		TDFrontier:  s.TDFrontier - o.TDFrontier,
		TDCandidate: s.TDCandidate - o.TDCandidate,
		BUAllgather: s.BUAllgather - o.BUAllgather,
		BURing:      s.BURing - o.BURing,
		Control:     s.Control - o.Control,
	}
}

// runJobs executes fn(0..jobs-1) on up to workers goroutines. Every job
// must touch only its own machine state (clocks, outboxes, disjoint
// vertex ranges), which is what keeps the result independent of worker
// count and interleaving.
func runJobs(workers, jobs int, fn func(job int)) {
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			fn(j)
		}
		return
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := cursor
				cursor++
				next.Unlock()
				if j >= jobs {
					return
				}
				fn(j)
			}
		}()
	}
	wg.Wait()
}

// runJobsErr is runJobs with per-job errors; the lowest-indexed failure
// wins, keeping error selection deterministic under concurrency.
func runJobsErr(workers, jobs int, fn func(job int) error) error {
	errs := make([]error, jobs)
	runJobs(workers, jobs, func(j int) { errs[j] = fn(j) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachSetAtomic calls fn for every set bit of b in [lo, hi),
// ascending, using atomic word loads.
func forEachSetAtomic(b *bitmap.Atomic, lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.Len() {
		hi = b.Len()
	}
	for wi := lo / 64; wi*64 < hi; wi++ {
		w := b.WordAt(wi)
		if w == 0 {
			continue
		}
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if i < lo {
				continue
			}
			if i >= hi {
				return
			}
			fn(i)
		}
	}
}

package graph500

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// BatchRow is one gang-batched sweep: Size queries advanced together.
type BatchRow struct {
	Size, Levels, Switches int
	Time                   vtime.Duration
}

// Amortized is each query's share of the batch's virtual time, in seconds.
func (b BatchRow) Amortized() float64 { return b.Time.Seconds() / float64(b.Size) }

// BatchedResult is a query stream served in gang batches.
type BatchedResult struct {
	Batches []BatchRow
	Queries int
	// Seconds is the stream's total virtual time and Traversed its total
	// traversed edges; their ratio is the pool's aggregate TEPS.
	Seconds   float64
	Traversed int64
	// HarmonicTEPS is the harmonic mean over queries of amortized TEPS
	// (traversed edges over the query's share of its batch's time) — the
	// Graph500 aggregate applied to the batched serving cost.
	HarmonicTEPS float64
	StatusBytes  int64
	NVMEdges     int64
	Cache        nvm.CacheStats
	ReadErrors   int64
	Retries      int64
	// DegradedBatches counts batches that lost a device mid-sweep,
	// DegradedLevels the levels rescued in them.
	DegradedBatches, DegradedLevels int
	Validated                       int
}

// AggregateTEPS is total traversed edges over total virtual time.
func (r *BatchedResult) AggregateTEPS() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return float64(r.Traversed) / r.Seconds
}

// RunBatched serves roots through sys's batched multi-source engine, up to
// lanes per batch in arrival order: every batch advances all its searches
// in one sweep of the shared stores, and each query is priced at its
// amortized share of that sweep. The first validateRoots queries (0 = all)
// are validated against src.
func RunBatched(sys *core.System, src edgelist.Source, cfg bfs.Config, lanes int, roots []int64, validateRoots int) (*BatchedResult, error) {
	br, err := sys.NewBatchRunner(lanes, cfg)
	if err != nil {
		return nil, err
	}
	r := &BatchedResult{Queries: len(roots), StatusBytes: br.StatusBytes()}
	var invSum float64 // sum of 1/TEPS_q
	for lo := 0; lo < len(roots); lo += lanes {
		batch := roots[lo:min(lo+lanes, len(roots))]
		res, err := br.RunBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", len(r.Batches), err)
		}
		row := BatchRow{Size: len(batch), Levels: len(res.Levels), Switches: res.Switches, Time: res.Time}
		r.Batches = append(r.Batches, row)
		r.Seconds += res.Time.Seconds()
		r.NVMEdges += res.ExaminedNVM
		r.Cache = r.Cache.Add(res.Cache)
		r.ReadErrors += res.Resilience.ReadErrors
		r.Retries += res.Resilience.Retries
		if n := res.Resilience.DegradedLevels(); n > 0 {
			r.DegradedBatches++
			r.DegradedLevels += n
		}
		for l, root := range batch {
			var traversed int64
			if validateRoots == 0 || r.Validated < validateRoots {
				rep, err := validate.Run(res.Trees[l], root, src)
				if err != nil {
					return nil, fmt.Errorf("query %d (root %d): %w", lo+l, root, err)
				}
				r.Validated++
				traversed = rep.TraversedEdges
			} else {
				traversed = validate.TraversedEdges(res.Trees[l], sys.Backward.Degree)
			}
			r.Traversed += traversed
			if traversed > 0 {
				invSum += row.Amortized() / float64(traversed)
			}
		}
	}
	if invSum > 0 {
		r.HarmonicTEPS = float64(r.Queries) / invSum
	}
	return r, nil
}

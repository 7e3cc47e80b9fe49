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

// Batch is one executed batch: the row RunBatched reports, each lane's
// traversed edges, and the engine's result behind them (its trees alias the
// runner until the next batch).
type Batch struct {
	BatchRow
	Traversed []int64
	Result    *bfs.BatchResult
}

// RunBatch advances roots together as one batch on br — one sweep of the
// shared stores — and prices it. The first validateLanes lanes are
// validated against src, which also counts their traversed edges; the rest
// are counted off degree (src may be nil when validateLanes is 0).
func RunBatch(br *bfs.BatchRunner, roots []int64, degree func(int64) int64, src edgelist.Source, validateLanes int) (*Batch, error) {
	res, err := br.RunBatch(roots)
	if err != nil {
		return nil, err
	}
	b := &Batch{
		BatchRow:  BatchRow{Size: len(roots), Levels: len(res.Levels), Switches: res.Switches, Time: res.Time},
		Traversed: make([]int64, len(roots)),
		Result:    res,
	}
	for l, root := range roots {
		if l >= validateLanes {
			b.Traversed[l] = validate.TraversedEdges(res.Trees[l], degree)
			continue
		}
		rep, err := validate.Run(res.Trees[l], root, src)
		if err != nil {
			return nil, fmt.Errorf("lane %d (root %d): %w", l, root, err)
		}
		b.Traversed[l] = rep.TraversedEdges
	}
	return b, nil
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
	if validateRoots == 0 {
		validateRoots = len(roots)
	}
	r := &BatchedResult{Queries: len(roots), StatusBytes: br.StatusBytes()}
	var invSum float64 // sum of 1/TEPS_q
	for lo := 0; lo < len(roots); lo += lanes {
		batch := roots[lo:min(lo+lanes, len(roots))]
		check := min(len(batch), validateRoots-r.Validated)
		b, err := RunBatch(br, batch, sys.Backward.Degree, src, check)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", len(r.Batches), err)
		}
		r.Batches = append(r.Batches, b.BatchRow)
		r.Validated += check
		r.Seconds += b.Time.Seconds()
		r.NVMEdges += b.Result.ExaminedNVM
		r.Cache = r.Cache.Add(b.Result.Cache)
		r.ReadErrors += b.Result.Resilience.ReadErrors
		r.Retries += b.Result.Resilience.Retries
		if n := b.Result.Resilience.DegradedLevels(); n > 0 {
			r.DegradedBatches++
			r.DegradedLevels += n
		}
		for _, traversed := range b.Traversed {
			r.Traversed += traversed
			if traversed > 0 {
				invSum += b.Amortized() / float64(traversed)
			}
		}
	}
	if invSum > 0 {
		r.HarmonicTEPS = float64(r.Queries) / invSum
	}
	return r, nil
}

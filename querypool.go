package semibfs

import (
	"errors"
	"fmt"
	"io"

	"semibfs/internal/bfs"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
)

// ErrPoolClosed is returned by Submit once the pool has been closed.
var ErrPoolClosed = errors.New("semibfs: query pool closed")

// Query is one accepted root request, identified by the ID Submit returned.
type Query struct {
	ID   int
	Root int64
}

// QueryResult is one query's outcome within a batch.
type QueryResult struct {
	ID   int
	Root int64
	// Parents is the query's own BFS tree (a copy; it does not alias pool
	// storage).
	Parents []int64
	Visited int64
	// TraversedEdges counts input edges inside the traversed component.
	TraversedEdges int64
	// Seconds is the query's amortized share of its batch's virtual time
	// (batch seconds / batch size): the serving-layer cost of this query.
	Seconds float64
	// Batch indexes the BatchStats entry of the batch that served it;
	// Lane is the bit lane it rode in.
	Batch int
	Lane  int
}

// TEPS returns the query's amortized traversed edges per virtual second.
func (r *QueryResult) TEPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.TraversedEdges) / r.Seconds
}

// BatchStats summarizes one executed batch.
type BatchStats struct {
	// Batch is the batch's index in submission order; Size its lane count.
	Batch int
	Size  int
	Roots []int64
	// Seconds is the whole batch's virtual time; AmortizedSeconds is
	// Seconds/Size — the per-query marginal cost the batching buys down.
	Seconds          float64
	AmortizedSeconds float64
	// TraversedEdges sums the lanes' traversed edges; TEPS is the batch's
	// aggregate rate (TraversedEdges / Seconds).
	TraversedEdges int64
	TEPS           float64
	// CacheHitRate is the shared page cache's hit rate during the batch
	// (0 when no cache is configured).
	CacheHitRate float64
	// Switches / Levels / Degraded summarize the batched traversal.
	Switches int
	Levels   int
	Degraded int
	// Layers holds the batch's per-layer storage-stack counter deltas.
	Layers nvm.StackStats
}

// QueryPool is the drain-mode serving layer: it accepts a stream of BFS
// root requests, packs them into batches of at most Lanes() in arrival
// order, and runs each batch through one shared forward/backward store
// pair — so a single pass of NVM reads (and one warm page cache) serves
// every query in the batch.
//
// The pool is the library caller of the fixed-batch protocol that
// `graph500 -batch` and the query sweep run (graph500.RunBatch): each batch
// runs to completion, so a query's Seconds here is the amortized cost those
// report. An open stream with arrivals, deadlines and backpressure is what
// Server is for.
//
// A pool belongs to one goroutine at a time; a caller that shares one
// wraps it in its own mutex. Close may be called any number of times: the
// shared stores are closed exactly once, even when a mid-batch device
// death has aborted some lanes.
type QueryPool struct {
	br      *bfs.BatchRunner
	deg     []int64 // degree table, one entry per vertex
	pending []Query
	nextID  int
	batches int // batches started so far, across Flush calls
	closed  bool
	closers []io.Closer
}

// NewQueryPool builds a system from edges per opts and returns a pool
// serving batches of up to lanes queries over it. The pool owns the
// system's stores; Close releases them.
func NewQueryPool(edges *EdgeList, lanes int, opts Options) (*QueryPool, error) {
	sys, err := NewSystem(edges, opts)
	if err != nil {
		return nil, err
	}
	p, err := sys.NewQueryPool(lanes)
	if err != nil {
		sys.Close()
		return nil, err
	}
	p.closers = append(p.closers, sys)
	return p, nil
}

// NewQueryPool returns a pool serving batches of up to lanes queries
// through this System's stores and page cache. The pool shares the stores,
// it does not own them: its Close is a no-op and the System must outlive
// it.
func (s *System) NewQueryPool(lanes int) (*QueryPool, error) {
	br, err := s.sys.NewBatchRunner(lanes, s.runner.Config())
	if err != nil {
		return nil, err
	}
	return newQueryPool(br, s.deg), nil
}

// newQueryPool wires a pool over an existing batch runner and the degree
// table of its graph; closers are appended by the callers that own stores.
func newQueryPool(br *bfs.BatchRunner, deg []int64) *QueryPool {
	return &QueryPool{br: br, deg: deg}
}

// Lanes returns the pool's batch capacity B.
func (p *QueryPool) Lanes() int { return p.br.Lanes() }

// Pending returns the queries accepted but not yet flushed.
func (p *QueryPool) Pending() int { return len(p.pending) }

// Submit accepts one root request and returns its query ID. The request
// runs at the next Flush. A closed pool returns ErrPoolClosed.
func (p *QueryPool) Submit(root int64) (int, error) {
	if p.closed {
		return 0, ErrPoolClosed
	}
	if n := int64(len(p.deg)); root < 0 || root >= n {
		return 0, fmt.Errorf("semibfs: root %d outside [0,%d)", root, n)
	}
	id := p.nextID
	p.nextID++
	p.pending = append(p.pending, Query{ID: id, Root: root})
	return id, nil
}

// packBatches partitions queries into batches of at most lanes each,
// preserving arrival order: batch i holds queries[i*lanes:(i+1)*lanes].
// It is pure (no pool state) so the packing invariants — no query lost,
// duplicated, reordered, or over-wide — are fuzzable in isolation; see
// FuzzBatchPack; TestQueryPoolCohortsMatchPackBatches holds Flush to it.
func packBatches(queries []Query, lanes int) [][]Query {
	if lanes < 1 || len(queries) == 0 {
		return nil
	}
	batches := make([][]Query, 0, (len(queries)+lanes-1)/lanes)
	for lo := 0; lo < len(queries); lo += lanes {
		hi := lo + lanes
		if hi > len(queries) {
			hi = len(queries)
		}
		batches = append(batches, queries[lo:hi:hi])
	}
	return batches
}

// Flush runs the pending queries in batches, returning one QueryResult per
// query (in submission order) and one BatchStats per executed batch. On a
// mid-batch failure (a dead device with no DRAM-resident direction to
// degrade to) the completed batches' results are returned along with the
// error; the aborted batch's queries and everything behind it are dropped,
// and the shared stores remain open until Close.
func (p *QueryPool) Flush() ([]QueryResult, []BatchStats, error) {
	pending := p.pending
	p.pending = nil
	var results []QueryResult
	var stats []BatchStats
	for _, batch := range packBatches(pending, p.br.Lanes()) {
		index := p.batches
		p.batches++
		roots := make([]int64, len(batch))
		for l, q := range batch {
			roots[l] = q.Root
		}
		b, err := graph500.RunBatch(p.br, roots, p.deg, nil, 0)
		if err != nil {
			return results, stats, fmt.Errorf("semibfs: batch %d: %w", index, err)
		}
		bs := BatchStats{
			Batch:            index,
			Size:             b.Size,
			Roots:            roots,
			Seconds:          b.Time.Seconds(),
			AmortizedSeconds: b.Amortized(),
			CacheHitRate:     b.Result.Layers.CacheView().HitRate(),
			Switches:         b.Switches,
			Levels:           b.Levels,
			Degraded:         b.Result.Resilience.DegradedLevels(),
			Layers:           b.Result.Layers,
		}
		for l, q := range batch {
			results = append(results, QueryResult{
				ID:             q.ID,
				Root:           q.Root,
				Parents:        b.Result.CloneTree(l),
				Visited:        b.Result.Visited[l],
				TraversedEdges: b.Traversed[l],
				Seconds:        bs.AmortizedSeconds,
				Batch:          index,
				Lane:           l,
			})
			bs.TraversedEdges += b.Traversed[l]
		}
		if bs.Seconds > 0 {
			bs.TEPS = float64(bs.TraversedEdges) / bs.Seconds
		}
		stats = append(stats, bs)
	}
	return results, stats, nil
}

// Run is the one-shot convenience: submit all roots, flush, and return the
// results.
func (p *QueryPool) Run(roots []int64) ([]QueryResult, []BatchStats, error) {
	for _, root := range roots {
		if _, err := p.Submit(root); err != nil {
			return nil, nil, err
		}
	}
	return p.Flush()
}

// Close releases the stores the pool owns and returns the first error,
// regardless of whether a batch died mid-run. A second Close does
// nothing. Pools attached to a caller-owned System own nothing, and their
// Close only stops Submit.
func (p *QueryPool) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	for _, c := range p.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

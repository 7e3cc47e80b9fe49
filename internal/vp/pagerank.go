package vp

import (
	"fmt"
	"math"
)

// PageRankOptions parameterize the PageRank program.
type PageRankOptions struct {
	// Damping is the damping factor d; 0 selects 0.85.
	Damping float64
	// Tol is the L1 convergence tolerance on successive rank vectors; 0
	// selects 1e-6.
	Tol float64
	// MaxIters caps the iteration count; 0 selects 100.
	MaxIters int
}

// WithDefaults returns o with zero fields replaced by defaults.
func (o PageRankOptions) WithDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	return o
}

// PageRank is the classic damped random-surfer iteration as a pull-only
// vertex program: every sweep is a dense gather where vertex v recomputes
//
//	rank'[v] = (1-d)/n + d*(dangling/n) + d * sum over nb of rank[nb]/deg[nb]
//
// over the (symmetric) backward adjacency, with the rank mass of
// degree-zero vertices redistributed uniformly. Ranks are double-buffered
// and every accumulation runs in the engine's fixed scan order with
// per-worker partials combined in worker order, so the floating-point
// results are bit-identical across worker counts and storage stacks.
//
// The program declares CapPull only: it has no meaningful scatter form
// under the engine's claim discipline (scatter PageRank needs racy
// floating-point accumulation, which would break determinism), so the
// engine runs every level as a gather sweep regardless of the alpha/beta
// rule, and a pull-device failure is unrescuable by direction switch —
// PageRank survives device degradation through the mirror layer's failover
// instead (see the degraded-mode test in internal/core).
type PageRank struct {
	opts PageRankOptions
	n    int64

	deg      []int64
	inv      []float64 // 1/deg, 0 for dangling vertices
	dangling []int64   // degree-zero vertices, ascending

	rank, next []float64
	// share[v] = rank[v]*inv[v], what v hands each neighbor this sweep:
	// computed once per vertex per sweep, so the per-edge gather is one
	// load instead of two and a multiply (same product, same sum order).
	share   []float64
	scratch []prAcc

	iters int
	delta float64 // last sweep's L1 delta
	dmass float64 // dangling rank mass of the current rank vector
}

// prAcc is one worker's gather accumulator and L1-delta partial, padded
// against false sharing.
type prAcc struct {
	sum   float64
	delta float64
	_pad  [6]float64
}

// NewPageRank returns a PageRank program over a graph whose per-vertex
// degrees are deg (the symmetric degree both CSR directions share);
// NewEngine sizes the rest.
func NewPageRank(deg []int64, opts PageRankOptions) *PageRank {
	return &PageRank{opts: opts.WithDefaults(), deg: deg}
}

// Options returns the effective (defaulted) options.
func (p *PageRank) Options() PageRankOptions { return p.opts }

// Ranks returns the rank vector (sums to 1). It aliases program state and
// is valid until the next Run.
func (p *PageRank) Ranks() []float64 { return p.rank }

// Iterations returns the number of completed sweeps.
func (p *PageRank) Iterations() int { return p.iters }

// Delta returns the last sweep's L1 rank change.
func (p *PageRank) Delta() float64 { return p.delta }

// Name implements Program.
func (p *PageRank) Name() string { return "pagerank" }

// Caps implements Program: gather only.
func (p *PageRank) Caps() Caps { return CapPull }

// Monotone implements Program.
func (p *PageRank) Monotone() bool { return false }

// Setup implements Program.
func (p *PageRank) Setup(n int64, workers int) {
	if int64(len(p.deg)) != n {
		panic(fmt.Sprintf("vp: pagerank degree array has %d entries for %d vertices", len(p.deg), n))
	}
	p.n = n
	p.inv = make([]float64, n)
	p.dangling = p.dangling[:0]
	for v, d := range p.deg {
		if d > 0 {
			p.inv[v] = 1 / float64(d)
		} else {
			p.dangling = append(p.dangling, int64(v))
		}
	}
	p.rank = make([]float64, n)
	p.next = make([]float64, n)
	p.share = make([]float64, n)
	p.scratch = make([]prAcc, workers)
}

// Reset implements Program: uniform initial ranks.
func (p *PageRank) Reset(root int64) error {
	u := 1 / float64(p.n)
	for i := range p.rank {
		p.rank[i] = u
		p.next[i] = 0
		p.share[i] = u * p.inv[i]
	}
	for i := range p.scratch {
		p.scratch[i] = prAcc{}
	}
	p.iters = 0
	p.delta = math.Inf(1)
	p.dmass = float64(len(p.dangling)) * u
	return nil
}

// InitialFrontier implements Program: every sweep is dense.
func (p *PageRank) InitialFrontier(root int64, emit func(v int64)) {
	for v := int64(0); v < p.n; v++ {
		emit(v)
	}
}

// Hint implements Program: always gather.
func (p *PageRank) Hint(level int, frontier int64) Hint { return HintPull }

// PushEdge implements Program; never called (no CapPush).
func (p *PageRank) PushEdge(w int, src, dst int64) bool { return false }

// PullCandidate implements Program: every vertex recomputes every sweep.
func (p *PageRank) PullCandidate(v int64) bool { return true }

// BeginPull implements Program.
func (p *PageRank) BeginPull(w int, v int64) { p.scratch[w].sum = 0 }

// PullEdge implements Program: accumulate nb's rank share in the engine's
// fixed scan order (no early exit).
func (p *PageRank) PullEdge(w int, v, nb int64, inFrontier bool) bool {
	p.scratch[w].sum += p.share[nb]
	return true
}

// EndPull implements Program: finalize v's new rank and fold its change
// into the worker's L1 partial. Every vertex counts as claimed — the
// frontier stays dense and termination is Converged's job.
func (p *PageRank) EndPull(w int, v int64) bool {
	nv := (1-p.opts.Damping)/float64(p.n) +
		p.opts.Damping*(p.dmass/float64(p.n)+p.scratch[w].sum)
	p.next[v] = nv
	d := nv - p.rank[v]
	if d < 0 {
		d = -d
	}
	p.scratch[w].delta += d
	return true
}

// Activate implements Program; push claims cannot occur.
func (p *PageRank) Activate(v int64) {}

// EndLevel implements Program: swap the rank buffers and reduce the L1
// partials in worker order (deterministic floating-point sum).
func (p *PageRank) EndLevel(level int) {
	p.rank, p.next = p.next, p.rank
	p.delta = 0
	for i := range p.scratch {
		p.delta += p.scratch[i].delta
		p.scratch[i].delta = 0
	}
	p.dmass = 0
	for _, v := range p.dangling {
		p.dmass += p.rank[v]
	}
	for v, r := range p.rank {
		p.share[v] = r * p.inv[v]
	}
	p.iters++
}

// Converged implements Program.
func (p *PageRank) Converged() bool {
	return p.iters >= 1 && (p.delta <= p.opts.Tol || p.iters >= p.opts.MaxIters)
}

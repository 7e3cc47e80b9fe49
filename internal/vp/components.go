package vp

import "semibfs/internal/bitmap"

// Components is connected components by min-label propagation: every
// vertex starts with its own ID as label and repeatedly adopts the
// smallest label among its neighbors, so labels converge to the minimum
// vertex ID of each component. The union-find pass in the root package
// remains the test oracle.
//
// Labels are double-buffered: cur is frozen during a level and next
// absorbs this level's improvements (a min over every frontier neighbor in
// either direction), then EndLevel publishes
// next into cur. The freeze makes every level's claim set — and therefore
// the direction decisions and level count — independent of worker count.
type Components struct {
	n         int64
	cur, next []int64
}

// NewComponents returns an unsized components program; NewEngine sizes it.
func NewComponents() *Components { return &Components{} }

// Labels returns the converged label array (label = min vertex ID of the
// component). It aliases program state and is valid until the next Run.
func (c *Components) Labels() []int64 { return c.cur }

// Name implements Program.
func (c *Components) Name() string { return "cc" }

// Caps implements Program: both kernel directions.
func (c *Components) Caps() Caps { return CapPush | CapPull }

// Monotone implements Program: a vertex whose label improves again later
// re-enters the frontier, so degraded rescues discard partial claims and
// let the re-run recompute them (the min writes are idempotent).
func (c *Components) Monotone() bool { return false }

// Setup implements Program.
func (c *Components) Setup(n int64, workers int) {
	c.n = n
	c.cur = make([]int64, n)
	c.next = make([]int64, n)
}

// Reset implements Program: the root is ignored, every vertex starts
// active with its own label.
func (c *Components) Reset(root int64) error {
	for i := range c.cur {
		c.cur[i] = int64(i)
		c.next[i] = int64(i)
	}
	return nil
}

// InitialFrontier implements Program: all vertices.
func (c *Components) InitialFrontier(root int64, emit func(v int64)) {
	for v := int64(0); v < c.n; v++ {
		emit(v)
	}
}

// Hint implements Program: pull while the frontier is dense (the first
// sweeps, where nearly every vertex is active and a scatter pass would
// fight over every destination), then let the alpha/beta rule steer the
// sparse endgame.
func (c *Components) Hint(level int, frontier int64) Hint {
	if frontier*4 >= c.n {
		return HintPull
	}
	return HintAuto
}

// PushEdge implements Program: scatter src's frozen label into next[dst]
// with a min; dst belongs in the next frontier whenever its next
// label has improved on its current one (by this edge or an earlier one —
// the test is against the frozen cur, so a claim is never missed when a
// partial degraded level already lowered next[dst]).
func (c *Components) PushEdge(w int, src, dst int64) bool {
	if l := c.cur[src]; l < c.next[dst] {
		c.next[dst] = l
	}
	return c.next[dst] < c.cur[dst]
}

// PullCandidate implements Program: label propagation gathers densely —
// any vertex with a frontier neighbor can improve, which only the scan
// itself can discover.
func (c *Components) PullCandidate(v int64) bool { return true }

// BeginPull implements Program.
func (c *Components) BeginPull(w int, v int64) {}

// PullEdges implements Program: fold frontier neighbors' frozen labels into
// next[v] (exclusive write; no early exit — the minimum needs the whole
// scan).
func (c *Components) PullEdges(w int, v int64, nbs []int64, frontier *bitmap.Bitmap) (int, bool) {
	for _, nb := range nbs {
		if frontier.Test(int(nb)) {
			if l := c.cur[nb]; l < c.next[v] {
				c.next[v] = l
			}
		}
	}
	return len(nbs), false
}

// EndPull implements Program.
func (c *Components) EndPull(w int, v int64) bool { return c.next[v] < c.cur[v] }

// Activate implements Program: labels are already final in next; nothing
// becomes visible until EndLevel publishes them.
func (c *Components) Activate(v int64) {}

// EndLevel implements Program: publish this level's improvements.
func (c *Components) EndLevel(level int) { copy(c.cur, c.next) }

// Converged implements Program: the run ends when no label changes.
func (c *Components) Converged() bool { return false }

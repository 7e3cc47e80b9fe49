package bfs

import (
	"fmt"

	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// RefRunner emulates the Graph500 reference implementation (v2.1.4): a
// parallel top-down BFS over a single, non-partitioned CSR with no NUMA
// awareness and no visited bitmap. Its purpose is the baseline bar in
// Figure 8 ("the reference implementation of Graph500 achieves 0.04 GTEPS
// in the same DRAM-only configuration").
//
// The kernel's work is real; its cost model reflects why the reference
// code is slow on a NUMA machine: adjacency and parent-array accesses land
// on a random socket (charged at the local/remote blend), and every edge
// probes the parent array directly in DRAM instead of testing a
// cache-resident bitmap.
type RefRunner struct {
	g    *csr.Graph
	topo numa.Topology
	cost numa.CostModel

	nWorkers int
	realW    int
	tree     []int64
	visited  *bitmap.Atomic
	clocks   []*vtime.Clock
	frontQ   []int64
	nextQ    [][]int64
	barrier  *vtime.Barrier
}

// NewRefRunner prepares a reference BFS over the plain CSR g.
func NewRefRunner(g *csr.Graph, topo numa.Topology, cost numa.CostModel, realWorkers int) (*RefRunner, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if realWorkers <= 0 {
		realWorkers = 1
	}
	nw := topo.TotalCores()
	r := &RefRunner{
		g:        g,
		topo:     topo,
		cost:     cost,
		nWorkers: nw,
		realW:    realWorkers,
		tree:     make([]int64, g.NumVertices),
		visited:  bitmap.NewAtomic(int(g.NumVertices)),
		clocks:   make([]*vtime.Clock, nw),
		nextQ:    make([][]int64, nw),
		barrier:  vtime.NewBarrier(cost.Barrier),
	}
	for w := range r.clocks {
		r.clocks[w] = vtime.NewClock(0)
		r.nextQ[w] = make([]int64, 0, 1024)
	}
	return r, nil
}

// mixedAccess is the expected cost of a random access with no NUMA
// placement: 1/nodes chance of being local.
func (r *RefRunner) mixedAccess() vtime.Duration {
	l := vtime.Duration(r.topo.Nodes)
	return (r.cost.LocalAccess + (l-1)*r.cost.RemoteAccess) / l
}

// Run executes one reference BFS from root.
func (r *RefRunner) Run(root int64) (*Result, error) {
	n := r.g.NumVertices
	if root < 0 || root >= n {
		return nil, fmt.Errorf("bfs: root %d outside [0,%d)", root, n)
	}
	for i := range r.tree {
		r.tree[i] = -1
	}
	r.visited.Reset()
	for _, c := range r.clocks {
		c.AdvanceTo(0)
	}
	r.tree[root] = root
	r.visited.Set(int(root))
	r.frontQ = append(r.frontQ[:0], root)

	res := &Result{Root: root, Visited: 1}
	mixed := r.mixedAccess()
	perEdge := r.cost.EdgeCompute + 2*mixed // value load + tree probe

	for level := 0; len(r.frontQ) > 0; level++ {
		numChunks := (len(r.frontQ) + ChunkSize - 1) / ChunkSize
		claims := make([]int64, r.nWorkers)
		examined := make([]int64, r.nWorkers)
		_ = runParallel(r.nWorkers, r.realW, func(w int) error { // the kernel cannot fail
			clock := r.clocks[w]
			nq := r.nextQ[w][:0]
			for c := w; c < numChunks; c += r.nWorkers {
				lo := c * ChunkSize
				hi := lo + ChunkSize
				if hi > len(r.frontQ) {
					hi = len(r.frontQ)
				}
				var t vtime.Duration
				for _, v := range r.frontQ[lo:hi] {
					t += r.cost.VertexOverhead + mixed // index fetch
					nbs := r.g.Neighbors(v)
					examined[w] += int64(len(nbs))
					for _, nb := range nbs {
						t += perEdge
						if r.visited.Test(int(nb)) {
							continue
						}
						if r.visited.TestAndSet(int(nb)) {
							t += r.cost.AtomicOp + mixed + r.cost.QueueAppend
							r.tree[nb] = v
							nq = append(nq, nb)
							claims[w]++
						} else {
							t += r.cost.AtomicOp
						}
					}
				}
				clock.Advance(t)
			}
			r.nextQ[w] = nq
			return nil
		})
		end := r.barrier.Sync(r.clocks)

		ls := LevelStats{
			Level:          level,
			Direction:      TopDown,
			Frontier:       int64(len(r.frontQ)),
			FrontierDegree: -1,
		}
		var claimed int64
		for w := 0; w < r.nWorkers; w++ {
			claimed += claims[w]
			ls.ExaminedDRAM += examined[w]
		}
		ls.Claimed = claimed
		if len(res.Levels) > 0 {
			ls.Start = res.Levels[len(res.Levels)-1].Start + res.Levels[len(res.Levels)-1].Time
		}
		ls.Time = end - ls.Start
		res.addLevel(ls)
		res.Visited += claimed

		// Gather next queues into the frontier.
		r.frontQ = r.frontQ[:0]
		for w := 0; w < r.nWorkers; w++ {
			r.frontQ = append(r.frontQ, r.nextQ[w]...)
		}
		if claimed == 0 {
			break
		}
	}
	res.Time = vtime.MaxOf(r.clocks)
	res.Tree = r.tree
	return res, nil
}

package bfs

import (
	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// ChunkSize is the number of frontier vertices a worker dequeues at a
// time, following the paper's Section V-C ("each thread dequeues a fixed
// number (64 in our current implementation) of vertices").
const ChunkSize = 64

// MinParent installs v as *p's parent unless a smaller parent is already
// there (-1 means none yet). The visited bitmap is frozen during a
// top-down level, so *every* frontier parent of an unvisited vertex is
// offered here; the survivor is the minimum, which makes the parent tree a
// pure function of the graph and the root — independent of worker count,
// queue depth, and I/O completion order.
func MinParent(p *int64, v int64) {
	if cur := *p; cur == -1 || v < cur {
		*p = v
	}
}

// newExpander builds the Runner's Expand hook (Kernels.Push; the workers
// share one, it keeps no per-worker state). Claims are deterministic: the
// visited bitmap is only read during the level (gatherQueues marks the claims
// visited afterwards), the parent is the minimum offered (MinParent), and
// claimBM picks the one worker that enqueues the vertex.
//
// Not inlined into NewRunner on purpose: compiled as part of that larger
// function the closure body loses the inlining of the bitmap probes
// (BenchmarkTopDownOnlyScale14 5.7 -> 6.9 ms).
//
//go:noinline
func newExpander(tree []int64, visited, claimBM *bitmap.Bitmap, cm *numa.CostModel) Expand {
	won := cm.AtomicOp + cm.LocalAccess + cm.QueueAppend
	lost := cm.AtomicOp
	return func(v int64, nbs, nq []int64) ([]int64, vtime.Duration) {
		var d vtime.Duration
		for _, nb := range nbs {
			if visited.Test(int(nb)) {
				continue
			}
			MinParent(&tree[nb], v)
			if claimBM.TestAndSet(int(nb)) {
				d += won
				nq = append(nq, nb)
			} else {
				d += lost
			}
		}
		return nq, d
	}
}

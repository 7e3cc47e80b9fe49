package vp

import (
	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// newPushHook builds worker w's bfs.Expand hook for the shared top-down
// sweep (bfs.Kernels.Push): the engine's whole scatter kernel. Claims are
// deterministic the same way the BFS runner's are: the program performs an
// idempotent atomic state update per edge and reports whether the destination
// belongs in the next frontier; the dedup TestAndSet picks exactly one worker
// to enqueue it.
//
// Out of line for the reason bfs.newExpander is: inlined into NewEngine the
// closure body loses the inlining of the bitmap probes.
//
//go:noinline
func newPushHook(w int, prog Program, dedup *bitmap.Atomic, cm *numa.CostModel) bfs.Expand {
	won := cm.AtomicOp + cm.LocalAccess + cm.QueueAppend
	lost := cm.AtomicOp
	return func(v int64, nbs, nq []int64) ([]int64, vtime.Duration) {
		var d vtime.Duration
		for _, nb := range nbs {
			if !prog.PushEdge(w, v, nb) {
				continue
			}
			if dedup.TestAndSet(int(nb)) {
				d += won
				nq = append(nq, nb)
			} else {
				d += lost
			}
		}
		return nq, d
	}
}

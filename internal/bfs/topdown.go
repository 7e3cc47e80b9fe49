package bfs

import (
	"sync/atomic"

	"semibfs/internal/vtime"
)

// ChunkSize is the number of frontier vertices a worker dequeues at a
// time, following the paper's Section V-C ("each thread dequeues a fixed
// number (64 in our current implementation) of vertices").
const ChunkSize = 64

// MinParent installs v as *p's parent unless a smaller parent is already
// there (-1 means none yet). The visited bitmap is frozen during a
// top-down level, so *every* frontier parent of an unvisited vertex races
// here; the survivor is the minimum, which makes the parent tree a pure
// function of the graph and the root — independent of worker count, queue
// depth, and I/O completion order.
func MinParent(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if cur != -1 && cur <= v {
			return
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// runTopDownLevel expands the frontier queue r.FrontQ one level in the
// top-down direction. Every NUMA node's workers scan the whole frontier,
// but against the node's own forward-graph replica, which contains only
// the neighbors the node owns — so every visited/tree write is node-local
// (the NETAL delegation scheme of Section IV-A).
//
// Claims are deterministic: the visited bitmap is only read during the
// level (gatherQueues marks the claims visited afterwards), the parent is
// a min-CAS on the tree entry, and r.claimBM arbitrates which worker
// enqueues the vertex. A cursor implementing FrontierPrefetcher gets the
// worker's next chunk announced before the current one is scanned, so
// next-chunk readahead overlaps the current chunk's expansion.
func (r *Runner) runTopDownLevel() error {
	cm := &r.Cfg.Cost
	numChunks := (len(r.FrontQ) + ChunkSize - 1) / ChunkSize
	return r.Parallel(func(w int) error {
		k := r.NodeOfWorker(w)
		j := w % r.CPN
		clock := r.Clocks[w]
		cursor := r.Cursors[w]
		pf, _ := cursor.(FrontierPrefetcher)
		acc := &r.Acc[w]
		nq := r.NextQ[w]
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for c := j; c < numChunks; c += r.CPN {
			lo := c * ChunkSize
			hi := lo + ChunkSize
			if hi > len(r.FrontQ) {
				hi = len(r.FrontQ)
			}
			if pf != nil {
				// Announce the worker's *next* chunk so its adjacency
				// I/O is in flight while this chunk is expanded. The
				// frontier is sorted, so the spans coalesce into runs.
				if nlo := (c + r.CPN) * ChunkSize; nlo < len(r.FrontQ) {
					nhi := nlo + ChunkSize
					if nhi > len(r.FrontQ) {
						nhi = len(r.FrontQ)
					}
					pf.PrefetchFrontier(k, r.FrontQ[nlo:nhi])
				}
			}
			var t vtime.Duration
			t += cm.Stream((hi - lo) * 8) // dequeue the chunk
			for _, v := range r.FrontQ[lo:hi] {
				t += cm.VertexOverhead
				if r.Part.NodeOf(int(v)) == k {
					// Statistics only (degree of the frontier
					// vertex, counted once across nodes).
					acc.FrontierDeg += r.Bwd.Degree(v)
				}
				clock.Advance(t)
				t = 0
				nbs, fromNVM, err := cursor.Neighbors(k, v)
				if err != nil {
					// Publish the claims made so far: their tree entries
					// are already set, and the degraded-mode rescue
					// marks them visited and seeds them as next-frontier
					// members, or the tree loses subtrees.
					r.NextQ[w] = nq
					return err
				}
				if fromNVM {
					acc.ExaminedNVM += int64(len(nbs))
				} else {
					// Index entry fetch plus the streamed
					// adjacency bytes.
					t += cm.LocalAccess + cm.Stream(len(nbs)*8)
					acc.ExaminedDRAM += int64(len(nbs))
				}
				for _, nb := range nbs {
					t += edgeCost
					if r.visited.Test(int(nb)) {
						continue
					}
					MinParent(&r.tree[nb], v)
					if r.claimBM.TestAndSet(int(nb)) {
						t += cm.AtomicOp + cm.LocalAccess + cm.QueueAppend
						nq = append(nq, nb)
						acc.Claimed++
					} else {
						t += cm.AtomicOp
					}
				}
			}
			clock.Advance(t)
		}
		r.NextQ[w] = nq
		return nil
	})
}

package vp

import (
	"semibfs/internal/bfs"
	"semibfs/internal/vtime"
)

// runPushLevel expands the frontier queue one level in the scatter
// direction. Every NUMA node's workers scan the whole frontier against the
// node's own forward-graph replica, so every state write the program makes
// is node-local (the NETAL delegation scheme).
//
// Claims are deterministic the same way the BFS runner's are: the program
// performs an idempotent atomic state update per edge and reports whether
// the destination belongs in the next frontier; the engine's dedup
// TestAndSet picks exactly one worker to enqueue it. Cursors implementing
// FrontierPrefetcher get the worker's next chunk announced before the
// current one is scanned.
func (e *Engine) runPushLevel() error {
	cm := &e.Cfg.Cost
	numChunks := (len(e.FrontQ) + bfs.ChunkSize - 1) / bfs.ChunkSize
	return e.Parallel(func(w int) error {
		k := e.NodeOfWorker(w)
		j := w % e.CPN
		clock := e.Clocks[w]
		cursor := e.Cursors[w]
		pf, _ := cursor.(bfs.FrontierPrefetcher)
		acc := &e.Acc[w]
		nq := e.NextQ[w]
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for c := j; c < numChunks; c += e.CPN {
			lo := c * bfs.ChunkSize
			hi := lo + bfs.ChunkSize
			if hi > len(e.FrontQ) {
				hi = len(e.FrontQ)
			}
			if pf != nil {
				// Announce the worker's *next* chunk so its adjacency I/O
				// is in flight while this chunk is expanded.
				if nlo := (c + e.CPN) * bfs.ChunkSize; nlo < len(e.FrontQ) {
					nhi := nlo + bfs.ChunkSize
					if nhi > len(e.FrontQ) {
						nhi = len(e.FrontQ)
					}
					pf.PrefetchFrontier(k, e.FrontQ[nlo:nhi])
				}
			}
			var t vtime.Duration
			t += cm.Stream((hi - lo) * 8) // dequeue the chunk
			for _, v := range e.FrontQ[lo:hi] {
				t += cm.VertexOverhead
				if e.Part.NodeOf(int(v)) == k {
					// Statistics only (degree of the frontier vertex,
					// counted once across nodes).
					acc.FrontierDeg += e.Bwd.Degree(v)
				}
				clock.Advance(t)
				t = 0
				nbs, fromNVM, err := cursor.Neighbors(k, v)
				if err != nil {
					// Publish the claims made so far: their state updates
					// are already applied, and the degraded-mode rescue
					// seeds or discards them per the program's
					// monotonicity contract.
					e.NextQ[w] = nq
					return err
				}
				if fromNVM {
					acc.ExaminedNVM += int64(len(nbs))
				} else {
					// Index entry fetch plus the streamed adjacency bytes.
					t += cm.LocalAccess + cm.Stream(len(nbs)*8)
					acc.ExaminedDRAM += int64(len(nbs))
				}
				for _, nb := range nbs {
					t += edgeCost
					if !e.prog.PushEdge(w, v, nb) {
						continue
					}
					if e.dedup.TestAndSet(int(nb)) {
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
		e.NextQ[w] = nq
		return nil
	})
}

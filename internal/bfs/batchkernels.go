package bfs

import (
	"math/bits"

	"semibfs/internal/vtime"
)

// runBatchTopDownLevel is the scatter phase of a batched top-down level.
// Every NUMA node's workers scan the whole frontier queue in fixed chunks
// (chunk c -> worker c % coresPerNode, as in the single-source kernel),
// reading each frontier vertex's adjacency once from the node's replica —
// one NVM read serving every lane that has the vertex in its frontier. For
// each neighbor the claim mask
//
//	d = frontier[v] &^ visited[nb]
//
// is computed against the *frozen* pre-level visited lanes (visited is only
// written by the merge phase), so d is interleaving-independent; the claims
// are committed with a commutative atomic OR into the next lanes and a
// commutative min-CAS per claimed lane's parent slot. Costs are charged
// from d alone, never from who won a race, which keeps every worker's
// virtual clock deterministic across real-parallelism levels.
func (r *BatchRunner) runBatchTopDownLevel() error {
	cm := &r.cfg.Cost
	numChunks := (len(r.frontQ) + ChunkSize - 1) / ChunkSize
	return r.parallel(func(w int) error {
		k := r.nodeOfWorker(w)
		j := w % r.cpn
		clock := r.clocks[w]
		cursor := r.cursors[w]
		acc := &r.acc[w]
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for c := j; c < numChunks; c += r.cpn {
			lo := c * ChunkSize
			hi := lo + ChunkSize
			if hi > len(r.frontQ) {
				hi = len(r.frontQ)
			}
			var t vtime.Duration
			t += cm.Stream((hi - lo) * 8) // dequeue the chunk
			for _, v := range r.frontQ[lo:hi] {
				t += cm.VertexOverhead + cm.BitmapProbe // frontier lane word
				fw := r.frontier.Word(int(v)) & r.activeMask
				if fw == 0 {
					continue
				}
				if r.part.NodeOf(int(v)) == k {
					// Statistics only (degree of the frontier vertex,
					// counted once across nodes).
					acc.FrontierDeg += r.bwd.Degree(v)
				}
				clock.Advance(t)
				t = 0
				nbs, fromNVM, err := cursor.Neighbors(k, v)
				if err != nil {
					// Nothing to publish: no claim reached visited (the
					// merge phase has not run), and enterDegraded scrubs
					// the partial next/parent writes.
					return err
				}
				if fromNVM {
					acc.ExaminedNVM += int64(len(nbs))
				} else {
					t += cm.LocalAccess + cm.Stream(len(nbs)*8)
					acc.ExaminedDRAM += int64(len(nbs))
				}
				for _, nb := range nbs {
					t += edgeCost
					d := fw &^ r.visited.Word(int(nb))
					if d == 0 {
						continue
					}
					t += cm.AtomicOp
					r.next.Or(int(nb), d)
					for dd := d; dd != 0; dd &= dd - 1 {
						minClaim(&r.trees[bits.TrailingZeros64(dd)][nb], v)
					}
					t += vtime.Duration(bits.OnesCount64(d)) * cm.LocalAccess
				}
			}
			clock.Advance(t)
		}
		return nil
	})
}

// mergeNext is the merge phase of a batched top-down level: in fixed
// worker stripes (worker-exclusive, so plain writes), fold the scattered
// next lanes into visited and count the newly claimed lane-bits. Claims
// committed before a mid-level degradation are already in visited and are
// deliberately not re-counted (they arrive through the seeded count).
func (r *BatchRunner) mergeNext() error {
	cm := &r.cfg.Cost
	n := int(r.n)
	nextW := r.next.Words()
	visW := r.visited.Words()
	return r.parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		if lo >= hi {
			return nil
		}
		acc := &r.acc[w]
		for v := lo; v < hi; v++ {
			newly := nextW[v] &^ visW[v]
			if newly != 0 {
				visW[v] |= newly
				acc.Claimed += int64(bits.OnesCount64(newly))
			}
		}
		r.clocks[w].Advance(cm.Stream((hi - lo) * 16))
		return nil
	})
}

// runBatchBottomUpLevel expands one batched level bottom-up: every vertex
// still missing some active lane scans its backward neighbor list once,
// claiming for *all* unclaimed lanes whose frontier contains the neighbor,
// and stops early as soon as every lane is satisfied. Vertices are owned
// in 64-vertex blocks with the same block -> worker mapping as the
// single-source kernel, so trees/visited/next writes are worker-local and
// the level is deterministic by construction.
func (r *BatchRunner) runBatchBottomUpLevel() error {
	cm := &r.cfg.Cost
	n := int(r.n)
	return r.parallel(func(w int) error {
		k := r.nodeOfWorker(w)
		j := w % r.cpn
		clock := r.clocks[w]
		scanner := r.scanners[w]
		acc := &r.acc[w]
		wordLo, wordHi := WordRangeOf(r.part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		// One probe closure per worker per level (allocating it per vertex
		// would cost one heap allocation per scanned vertex).
		var rem, claimed uint64
		var vcur int
		probe := func(nb int64) bool {
			d := r.frontier.Word(int(nb)) & rem
			if d != 0 {
				for dd := d; dd != 0; dd &= dd - 1 {
					r.trees[bits.TrailingZeros64(dd)][vcur] = nb
				}
				claimed |= d
				rem &^= d
			}
			return rem != 0
		}
		for wi := wordLo + j; wi < wordHi; wi += r.cpn {
			base := wi * 64
			hiV := base + 64
			if hiV > n {
				hiV = n
			}
			var t vtime.Duration
			// Lane-word loads for the block: B-wide status means one word
			// per vertex, not one bit.
			t += cm.Stream((hiV - base) * 8)
			for v := base; v < hiV; v++ {
				rem = r.activeMask &^ r.visited.Word(v)
				if rem == 0 {
					continue
				}
				t += cm.VertexOverhead
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner node's CSR.
				vk := k
				if v < r.part.Starts[k] || v >= r.part.Starts[k+1] {
					vk = r.part.NodeOf(v)
				}
				claimed = 0
				vcur = v
				dram, nvmEdges, err := scanner.Scan(vk, int64(v), probe)
				if err != nil {
					// Scrub this vertex's partial parent entries so a
					// degraded re-run's min-claims start from -1; claims
					// count only once their visited lanes commit below.
					for dd := claimed; dd != 0; dd &= dd - 1 {
						r.trees[bits.TrailingZeros64(dd)][v] = -1
					}
					return err
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.ExaminedDRAM += dram
				acc.ExaminedNVM += nvmEdges
				if claimed != 0 {
					r.visited.Or(v, claimed)
					r.next.Or(v, claimed)
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.Claimed += int64(bits.OnesCount64(claimed))
				}
			}
			clock.Advance(t)
		}
		return nil
	})
}

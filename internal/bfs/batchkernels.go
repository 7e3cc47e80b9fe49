package bfs

import (
	"math/bits"

	"semibfs/internal/vtime"
)

// newScatter builds the Expand hook of a batched top-down level's scatter
// phase (the workers share one). The team's sweep reads each frontier vertex's
// adjacency once from the node's replica — one NVM read serving every lane
// that has the vertex in its frontier. For each neighbor the claim mask
//
//	d = frontier[v] &^ visited[nb]
//
// is computed against the *frozen* pre-level visited lanes (visited is only
// written by the merge phase), so d is interleaving-independent; the claims
// are committed with a commutative atomic OR into the next lanes and a
// commutative min-CAS per claimed lane's parent slot. Costs are charged
// from d alone, never from who won a race, which keeps every worker's
// virtual clock deterministic across real-parallelism levels. Nothing is
// queued: no claim reaches visited before the merge phase, and a rescue scrubs
// the partial next/parent writes (enterDegraded).
//
// Out of line for the reason newExpander is.
//
//go:noinline
func newScatter(r *BatchRunner) Expand {
	atomicOp, localAccess := r.Cfg.Cost.AtomicOp, r.Cfg.Cost.LocalAccess
	visited, frontier, next, trees := r.visited, r.frontier, r.next, r.trees
	return func(v int64, nbs, nq []int64) ([]int64, vtime.Duration) {
		fw := frontier.Word(int(v)) & r.activeMask
		var t vtime.Duration
		for _, nb := range nbs {
			d := fw &^ visited.Word(int(nb))
			if d == 0 {
				continue
			}
			next.Or(int(nb), d)
			for dd := d; dd != 0; dd &= dd - 1 {
				MinParent(&trees[bits.TrailingZeros64(dd)][nb], v)
			}
			t += atomicOp + vtime.Duration(bits.OnesCount64(d))*localAccess
		}
		return nq, t
	}
}

// mergeNext is the merge phase of a batched top-down level: in fixed
// worker stripes (worker-exclusive, so plain writes), fold the scattered
// next lanes into visited and count the newly claimed lane-bits. Claims
// committed before a mid-level degradation are already in visited and are
// deliberately not re-counted (they arrive through the seeded count).
func (r *BatchRunner) mergeNext() error {
	cm := &r.Cfg.Cost
	n := int(r.N)
	nextW := r.next.Words()
	visW := r.visited.Words()
	return r.Parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		if lo >= hi {
			return nil
		}
		acc := &r.Acc[w]
		for v := lo; v < hi; v++ {
			newly := nextW[v] &^ visW[v]
			if newly != 0 {
				visW[v] |= newly
				acc.Claimed += int64(bits.OnesCount64(newly))
			}
		}
		r.Clocks[w].Advance(cm.Stream((hi - lo) * 16))
		return nil
	})
}

// lanesProbe is one worker's batched bottom-up probe: the closure its scanner
// calls per neighbor, and the state of the vertex being scanned — the lanes
// still unclaimed, the lanes claimed so far. Built once per BatchRunner and
// padded, like the Runner's pullProbe.
type lanesProbe struct {
	rem, claimed uint64
	v            int
	fn           func(nb int64) bool
	_            [4]int64
}

// newLanesProbe arms p. Out of line for the reason newExpander is.
//
//go:noinline
func newLanesProbe(p *lanesProbe, r *BatchRunner) {
	frontier, trees := r.frontier, r.trees
	p.fn = func(nb int64) bool {
		d := frontier.Word(int(nb)) & p.rem
		if d != 0 {
			for dd := d; dd != 0; dd &= dd - 1 {
				trees[bits.TrailingZeros64(dd)][p.v] = nb
			}
			p.claimed |= d
			p.rem &^= d
		}
		return p.rem != 0
	}
}

// runBatchBottomUpLevel expands one batched level bottom-up: every vertex
// still missing some active lane scans its backward neighbor list once,
// claiming for *all* unclaimed lanes whose frontier contains the neighbor,
// and stops early as soon as every lane is satisfied. Vertices are owned
// in 64-vertex blocks with the same block -> worker mapping as the
// single-source kernel, so trees/visited/next writes are worker-local and
// the level is deterministic by construction.
func (r *BatchRunner) runBatchBottomUpLevel() error {
	cm := &r.Cfg.Cost
	n := int(r.N)
	return r.Parallel(func(w int) error {
		k := r.NodeOfWorker(w)
		j := w % r.CPN
		clock := r.Clocks[w]
		scanner := r.Scanners[w]
		acc := &r.Acc[w]
		probe := &r.probes[w]
		wordLo, wordHi := WordRangeOf(r.Part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for wi := wordLo + j; wi < wordHi; wi += r.CPN {
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
				probe.rem = r.activeMask &^ r.visited.Word(v)
				if probe.rem == 0 {
					continue
				}
				t += cm.VertexOverhead
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner node's CSR.
				vk := k
				if v < r.Part.Starts[k] || v >= r.Part.Starts[k+1] {
					vk = r.Part.NodeOf(v)
				}
				probe.claimed = 0
				probe.v = v
				dram, nvmEdges, err := scanner.Scan(vk, int64(v), probe.fn)
				claimed := probe.claimed
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

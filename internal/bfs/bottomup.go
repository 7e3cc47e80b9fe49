package bfs

import (
	"math/bits"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// WordRangeOf returns the half-open range of 64-bit bitmap word indices
// whose *base bit* falls inside node k's vertex range. A word straddling a
// node boundary is owned by the node of its base bit; the owning worker
// delegates the spill-over vertices to the right node's CSR (the scanners
// accept any node index), so every vertex is examined by exactly one worker
// and all next/visited word writes stay word-exclusive. Every bottom-up
// kernel (Runner, BatchRunner, vp.Engine) uses this ownership rule.
func WordRangeOf(part *numa.Partition, k int) (lo, hi int) {
	sLo, sHi := part.Range(k)
	lo = (sLo + 63) / 64
	if k == 0 {
		lo = 0
	}
	hi = (sHi + 63) / 64
	return lo, hi
}

// pullProbe is one worker's bottom-up probe: the closure its scanner calls
// per slice of what follows a DRAM prefix (a tail chunk's batch, or a run
// of a dirty vertex's merged adjacency) and the frontier parent that
// closure found. Built once per Runner — a closure made inside the level
// would cost an allocation per worker per level, inside the vertex loop
// one per scanned vertex.
type pullProbe struct {
	parent int64
	fn     func(nbs []int64) (int, bool)
}

// newPullProbe arms p over a node's frontier replica. Kept out of line for
// the reason newExpander is.
//
//go:noinline
func newPullProbe(p *pullProbe, frontier *bitmap.Bitmap) {
	p.fn = func(nbs []int64) (int, bool) {
		for i, nb := range nbs {
			if frontier.Test(int(nb)) {
				p.parent = nb
				return i + 1, true
			}
		}
		return len(nbs), false
	}
}

// runBottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex scans its neighbor list (highest-degree first when the
// backward graph was built with the NETAL ordering) and claims the first
// neighbor found in the frontier as its parent, terminating the scan
// early (Section III-B). Most walked vertices stop at their first
// neighbor, so the kernel asks the scanner once per bitmap word which of
// its wanted vertices do (scanner.HeadHits) and claims them together;
// only a head miss or a dirty vertex is walked, a miss from its second
// prefix entry, and only a tail or a dirty vertex goes through the probe.
// Neither a vertex with no neighbors at all (scanner.Idle) nor a head hit
// is charged where it stands: the kernel adds its charge — VertexOverhead,
// or hitCost — to the charge the next vertex it does walk books before
// Prefix, or to the word's closing charge, so the clock reads the same at
// every Rest as if the walk had visited each vertex in turn. A Rest that
// fails first takes back the word's head hits above the failing vertex, so
// the failed level leaves exactly the claims a vertex-by-vertex walk left.
//
// Out of line: inlined into the Kernels method value, the level closure
// loses the inlining of its bitmap and cost-model calls (DESIGN's inliner
// trap).
//
//go:noinline
func (r *Runner) runBottomUpLevel() error {
	cm := &r.Cfg.Cost
	n := int(r.N)
	return r.Parallel(func(w int) error {
		k := r.NodeOfWorker(w)
		j := w % r.CPN
		clock := r.Clocks[w]
		scanner := r.Scanners[w]
		acc := &r.Acc[w]
		probe := &r.probes[w]
		frontier := r.FrontBM[k]
		frontW := frontier.Words()
		wordLo, wordHi := WordRangeOf(r.Part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		// A head hit examines one DRAM entry and claims.
		hitCost := cm.VertexOverhead + edgeCost + cm.Stream(8) + cm.LocalAccess + 2*cm.BitmapProbe
		visW, nextW := r.visited.Words(), r.NextBM.Words()
		var walked int64 // prefix entries examined, counted once per level
		for wi := wordLo + j; wi < wordHi; wi += r.CPN {
			var t vtime.Duration
			t += cm.Stream(8) // visited word load
			unvisited := ^visW[wi]
			base := wi * 64
			if base+64 > n {
				unvisited &= (1 << uint(n-base)) - 1
			}
			idle := unvisited & scanner.Idle(wi)
			unvisited &^= idle
			// The head hits are claimed here. hits keeps those whose
			// charge is still unbooked: the next walked vertex above
			// books it, the word's closing charge books the rest.
			hits := scanner.HeadHits(wi, unvisited, frontW, r.tree)
			unvisited &^= hits
			visW[wi] |= hits
			nextW[wi] |= hits
			nh := int64(bits.OnesCount64(hits))
			walked += nh
			acc.ExaminedDRAM += nh
			acc.Claimed += nh
			for unvisited != 0 {
				bit := bits.TrailingZeros64(unvisited)
				unvisited &= unvisited - 1
				v := int64(base + bit)
				below := uint64(1)<<uint(bit) - 1
				t += cm.VertexOverhead * vtime.Duration(1+bits.OnesCount64(idle&below))
				t += hitCost * vtime.Duration(bits.OnesCount64(hits&below))
				idle &^= below
				hits &^= below
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner
				// node's CSR.
				vk := k
				if v < int64(r.Part.Starts[k]) || v >= int64(r.Part.Starts[k+1]) {
					vk = r.Part.NodeOf(int(v))
				}
				_, nbs, rest := scanner.Prefix(vk, v)
				parent := int64(-1)
				var dram, nvmEdges int64
				if len(nbs) > 0 {
					dram = 1 // the head, which HeadHits found missing
					for _, nb := range nbs[1:] {
						dram++
						if frontier.Test(int(nb)) {
							parent, rest = int64(nb), false
							break
						}
					}
				}
				walked += dram
				if rest {
					probe.parent = -1
					d, nv, err := scanner.Rest(vk, v, probe.fn)
					if err != nil {
						walked -= r.dropHeadHits(wi, hits, acc)
						scanner.CountPrefix(walked)
						return err
					}
					dram, nvmEdges, parent = dram+d, nv, probe.parent
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.ExaminedDRAM += dram
				acc.ExaminedNVM += nvmEdges
				if parent >= 0 {
					r.tree[v] = parent
					r.visited.Set(int(v))
					r.NextBM.Set(int(v))
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.Claimed++
				}
			}
			t += cm.VertexOverhead * vtime.Duration(bits.OnesCount64(idle))
			t += hitCost * vtime.Duration(bits.OnesCount64(hits))
			clock.Advance(t)
		}
		scanner.CountPrefix(walked)
		return nil
	})
}

// dropHeadHits takes back the head hits of word wi a failed walk did not
// reach: their tree entries, visited and next bits, and counts. It returns
// how many it took back.
func (r *Runner) dropHeadHits(wi int, hits uint64, acc *WorkerAcc) int64 {
	r.visited.Words()[wi] &^= hits
	r.NextBM.Words()[wi] &^= hits
	nh := int64(bits.OnesCount64(hits))
	acc.ExaminedDRAM -= nh
	acc.Claimed -= nh
	for ; hits != 0; hits &= hits - 1 {
		r.tree[wi*64+bits.TrailingZeros64(hits)] = -1
	}
	return nh
}

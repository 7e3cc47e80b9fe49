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
// per neighbor and the frontier parent that closure found. Built once per
// Runner — a closure made inside the level would cost an allocation per worker
// per level, inside the vertex loop one per scanned vertex — and padded, since
// parent is written per scanned vertex.
type pullProbe struct {
	parent int64
	fn     func(nb int64) bool
	_      [6]int64
}

// newPullProbe arms p over a node's frontier replica. Kept out of line for
// the reason newExpander is.
//
//go:noinline
func newPullProbe(p *pullProbe, frontier *bitmap.Atomic) {
	p.fn = func(nb int64) bool {
		if frontier.Test(int(nb)) {
			p.parent = nb
			return false
		}
		return true
	}
}

// runBottomUpLevel expands one level in the bottom-up direction: every
// unvisited vertex scans its neighbor list (highest-degree first when the
// backward graph was built with the NETAL ordering) and claims the first
// neighbor found in the frontier as its parent, terminating the scan
// early (Section III-B).
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
		wordLo, wordHi := WordRangeOf(r.Part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for wi := wordLo + j; wi < wordHi; wi += r.CPN {
			var t vtime.Duration
			t += cm.Stream(8) // visited word load
			word := r.visited.WordAt(wi)
			unvisited := ^word
			base := wi * 64
			if base+64 > n {
				unvisited &= (1 << uint(n-base)) - 1
			}
			for unvisited != 0 {
				bit := bits.TrailingZeros64(unvisited)
				unvisited &= unvisited - 1
				v := int64(base + bit)
				t += cm.VertexOverhead
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner
				// node's CSR.
				vk := k
				if v < int64(r.Part.Starts[k]) || v >= int64(r.Part.Starts[k+1]) {
					vk = r.Part.NodeOf(int(v))
				}
				probe.parent = -1
				dram, nvmEdges, err := scanner.Scan(vk, v, probe.fn)
				if err != nil {
					return err
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.ExaminedDRAM += dram
				acc.ExaminedNVM += nvmEdges
				if probe.parent >= 0 {
					r.tree[v] = probe.parent
					r.visited.Set(int(v))
					r.NextBM.Set(int(v))
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.Claimed++
				}
			}
			clock.Advance(t)
		}
		return nil
	})
}

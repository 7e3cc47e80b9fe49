package vp

import (
	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/vtime"
)

// pullProbe is one worker's gather probe: the closure its scanner calls per
// slice after a DRAM prefix (a tail batch, a run of a dirty vertex's merged
// adjacency), the candidate being scanned, and the batch its 32-bit DRAM
// prefix is widened into for PullEdges. Built once per Engine, like
// bfs.Runner's.
type pullProbe struct {
	v    int64
	fn   func(nbs []int64) (int, bool)
	wide []int64
}

// pullBatch is how many DRAM prefix entries one PullEdges call gets.
const pullBatch = 64

// newPullProbe arms worker w's probe over its node's frontier replica. Out
// of line for the reason newPushHook is.
//
//go:noinline
func newPullProbe(p *pullProbe, w int, prog Program, frontier *bitmap.Bitmap) {
	p.fn = func(nbs []int64) (int, bool) {
		return prog.PullEdges(w, p.v, nbs, frontier)
	}
	p.wide = make([]int64, pullBatch)
}

// pullPrefix hands v's DRAM prefix nbs to prog.PullEdges widened into wide,
// a batch at a time, until the program stops or the prefix ends, and
// returns how many entries the program examined and whether it stopped. A
// program that stops early has had at most one batch widened past its stop.
func pullPrefix(prog Program, w int, v int64, nbs []uint32, wide []int64, frontier *bitmap.Bitmap) (seen int, stop bool) {
	for len(nbs) > 0 {
		batch := wide[:min(len(nbs), len(wide))]
		for j := range batch {
			batch[j] = int64(nbs[j])
		}
		e, stop := prog.PullEdges(w, v, batch, frontier)
		seen += e
		if stop {
			return seen, true
		}
		nbs = nbs[len(batch):]
	}
	return seen, false
}

// runPullLevel runs one gather sweep: every pull candidate scans its
// backward adjacency (highest-degree first when the backward graph was
// built with the NETAL ordering), folding neighbors into the program's
// accumulator until the program terminates the scan early; EndPull then
// decides whether the vertex was claimed.
//
// Word-block ownership matches the BFS bottom-up kernel: a worker owns the
// candidates whose bitmap word's base bit falls in its node's range and
// delegates straddling vertices to the owner node's CSR, so every EndPull
// state write stays worker-exclusive.
//
// The kernel hands each DRAM prefix to PullEdges itself, widened a batch of
// pullBatch entries at a time, and only a tail or a dirty vertex to the
// probe, which calls PullEdges once per batch. It is out of line for the reason bfs.Runner's bottom-up kernel is.
//
//go:noinline
func (e *Engine) runPullLevel() error {
	cm := &e.Cfg.Cost
	n := int(e.N)
	return e.Parallel(func(w int) error {
		k := e.NodeOfWorker(w)
		j := w % e.CPN
		clock := e.Clocks[w]
		scanner := e.Scanners[w]
		acc := &e.Acc[w]
		probe := &e.probes[w]
		prog, frontier := e.prog, e.FrontBM[k]
		wordLo, wordHi := bfs.WordRangeOf(e.Part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		var walked int64 // prefix entries examined, counted once per level
		for wi := wordLo + j; wi < wordHi; wi += e.CPN {
			var t vtime.Duration
			t += cm.Stream(8) // candidate word load
			base := wi * 64
			hi := base + 64
			if hi > n {
				hi = n
			}
			for vi := base; vi < hi; vi++ {
				v := int64(vi)
				if !prog.PullCandidate(v) {
					continue
				}
				t += cm.VertexOverhead
				clock.Advance(t)
				t = 0
				// Delegate straddling vertices to their owner node's CSR.
				vk := k
				if vi < e.Part.Starts[k] || vi >= e.Part.Starts[k+1] {
					vk = e.Part.NodeOf(vi)
				}
				prog.BeginPull(w, v)
				_, nbs, rest := scanner.Prefix(vk, v)
				var nvmEdges int64
				seen, stop := pullPrefix(prog, w, v, nbs, probe.wide, frontier)
				dram := int64(seen)
				rest = rest && !stop
				walked += dram
				if rest {
					probe.v = v
					d, nv, err := scanner.Rest(vk, v, probe.fn)
					if err != nil {
						scanner.CountPrefix(walked)
						return err
					}
					dram, nvmEdges = dram+d, nv
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.ExaminedDRAM += dram
				acc.ExaminedNVM += nvmEdges
				if prog.EndPull(w, v) {
					e.NextBM.Set(vi)
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.Claimed++
				}
			}
			clock.Advance(t)
		}
		scanner.CountPrefix(walked)
		return nil
	})
}

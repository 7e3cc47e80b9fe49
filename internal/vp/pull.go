package vp

import (
	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/vtime"
)

// pullProbe is one worker's gather probe: the closure its scanner calls per
// neighbor, and the candidate being scanned. Built once per Engine and padded,
// like bfs.Runner's.
type pullProbe struct {
	v  int64
	fn func(nb int64) bool
	_  [6]int64
}

// newPullProbe arms worker w's probe over its node's frontier replica. Out
// of line for the reason newPushHook is.
//
//go:noinline
func newPullProbe(p *pullProbe, w int, prog Program, frontier *bitmap.Atomic) {
	p.fn = func(nb int64) bool {
		return prog.PullEdge(w, p.v, nb, frontier.Test(int(nb)))
	}
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
		wordLo, wordHi := bfs.WordRangeOf(e.Part, k)
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
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
				if !e.prog.PullCandidate(v) {
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
				probe.v = v
				e.prog.BeginPull(w, v)
				dram, nvmEdges, err := scanner.Scan(vk, v, probe.fn)
				if err != nil {
					return err
				}
				examined := dram + nvmEdges
				t += edgeCost * vtime.Duration(examined)
				t += cm.Stream(int(dram) * 8)
				acc.ExaminedDRAM += dram
				acc.ExaminedNVM += nvmEdges
				if e.prog.EndPull(w, v) {
					e.NextBM.Set(vi)
					t += cm.LocalAccess + 2*cm.BitmapProbe
					acc.Claimed++
				}
			}
			clock.Advance(t)
		}
		return nil
	})
}

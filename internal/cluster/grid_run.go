package cluster

import (
	"semibfs/internal/bfs"
	"semibfs/internal/vtime"
)

// The grid's side of the level loop (layout): every level starts by
// allgathering the frontier down the processor columns, the bottom-up
// level is Beamer's rotating ring scan, and because the bu blocks stay in
// DRAM the grid installs core.rollback and survives machine death.

func (g *Grid) install(root int64) {
	g.fview.Reset()
	g.resetLevelScratch()
	g.frontier.Set(int(root))
}

// redirect is a no-op: the grid keeps its frontier as one bitmap and
// re-distributes it in the direction's format at the top of every level.
func (g *Grid) redirect(from, to bfs.Direction) error { return nil }

// level distributes the frontier and executes one level in the layout dir
// and the degradation state call for.
func (g *Grid) level(dir bfs.Direction) (claimed, examined int64, err error) {
	if err := g.distributeFrontier(dir); err != nil {
		return 0, 0, err
	}
	if dir == bfs.TopDown && !g.degraded {
		return g.topDownLevel()
	}
	return g.scanLevel(dir == bfs.TopDown)
}

// resetLevelScratch rolls back all per-level state: the rotating claim
// candidates and every machine's outboxes. Claims are only committed
// (tree/next) after a level attempt fully succeeds, so a rescue retry
// starts clean.
func (g *Grid) resetLevelScratch() {
	for i := range g.touched {
		for _, v := range g.touched[i] {
			g.cand[v] = -1
		}
		g.touched[i] = g.touched[i][:0]
	}
	for _, m := range g.machines {
		m.resetBoxes()
	}
}

// distributeFrontier allgathers the current frontier down every
// processor column: wire-encoded sparse vertex lists into the per-column
// queues for a healthy top-down level, wire-encoded bitmap fragments
// into the frontier view for bottom-up (and degraded top-down) levels.
// Each column moves R fragments to R-1 peers — the sqrt(P)-scale
// collective that distinguishes the 2D layout from 1D.
func (g *Grid) distributeFrontier(dir bfs.Direction) error {
	sparse := dir == bfs.TopDown && !g.degraded
	if !sparse {
		g.fview.Reset()
	}
	for j := 0; j < g.cols; j++ {
		lo, hi := g.colStart[j], g.colStart[j+1]
		parts := blockStarts(hi-lo, g.rows)
		if sparse {
			g.queues[j] = g.queues[j][:0]
		}
		fragLen := make([]int64, g.rows)
		var total int64
		for r := 0; r < g.rows; r++ {
			m := g.at(r, j)
			flo, fhi := lo+parts[r], lo+parts[r+1]
			if sparse {
				q := m.idsBuf[:0]
				g.frontier.ForEachSet(int(flo), int(fhi), func(i int) {
					q = append(q, int64(i))
				})
				m.idsBuf = q[:0]
				m.wirebuf = appendList(m.wirebuf[:0], q, g.cfg.Compress)
				dec, _, err := decodeList(m.wirebuf, g.queues[j])
				if err != nil {
					return err
				}
				g.queues[j] = dec
			} else {
				m.wirebuf = appendBitmap(m.wirebuf[:0], g.frontier.Test, int(flo), int(fhi), g.cfg.Compress)
				off := int(flo)
				if _, _, err := decodeBitmap(m.wirebuf, int(fhi-flo), func(i int) {
					g.fview.Set(off + i)
				}); err != nil {
					return err
				}
			}
			fragLen[r] = int64(len(m.wirebuf))
			total += fragLen[r]
			if dir == bfs.TopDown {
				g.comm.TDFrontier += fragLen[r] * int64(g.rows-1)
			} else {
				g.comm.BUAllgather += fragLen[r] * int64(g.rows-1)
			}
		}
		if g.rows > 1 {
			for r := 0; r < g.rows; r++ {
				g.at(r, j).clock.Advance(g.cfg.Net.transfer(total - fragLen[r]))
			}
		}
	}
	return nil
}

// scanLevel runs Beamer's rotating sub-phases over every processor row
// (parallel across rows): machine (i,j) scans one stripe of row i
// against its own edge block, carrying the stripe's best claim so far,
// then ring-shifts its wire-encoded claim updates to the machine that
// scans the stripe next. With emulateTD, the same machinery evaluates
// the top-down claim rule (minimum frontier neighbor by ID, full scan)
// from the DRAM-resident transpose — degraded mode's bit-identical
// stand-in for the dead top-down stacks. Claims are committed only after
// every row succeeds.
func (g *Grid) scanLevel(emulateTD bool) (claimed, examined int64, err error) {
	cm := &g.cfg.Cost
	rowComm := make([]int64, g.rows)
	err = runJobsErr(g.cfg.RealWorkers, g.rows, func(i int) error {
		for j := 0; j < g.cols; j++ {
			m := g.at(i, j)
			m.examined, m.claimed = 0, 0
		}
		for s := 0; s < g.cols; s++ {
			for j := 0; j < g.cols; j++ {
				m := g.at(i, j)
				t0 := (j + s) % g.cols
				lo, hi := g.stripeRange(i, t0)
				var t vtime.Duration
				t += cm.Stream(int(hi-lo) / 8)
				m.pending = m.pending[:0]
				for v := lo; v < hi; v++ {
					if g.visited.Test(int(v)) {
						continue
					}
					t += cm.VertexOverhead
					cur := g.cand[v]
					best := cur
					var serr error
					if emulateTD {
						serr = g.stream(m, &m.bu, v, &t, func(u int64) bool {
							t += cm.EdgeCompute + cm.BitmapProbe
							m.examined++
							if g.fview.Test(int(u)) && (best == -1 || u < best) {
								best = u
							}
							return true
						})
					} else {
						serr = g.stream(m, &m.bu, v, &t, func(u int64) bool {
							t += cm.EdgeCompute + cm.BitmapProbe
							m.examined++
							if cur != -1 && !g.better(u, cur) {
								return false
							}
							if g.fview.Test(int(u)) {
								best = u
								return false
							}
							return true
						})
					}
					if serr != nil {
						return &machineError{machine: i*g.cols + j, err: serr}
					}
					if best != cur {
						m.pending = append(m.pending, pair{v, best})
						t += cm.QueueAppend
					}
				}
				g.charge(m, t)
			}
			// Ring shift: each machine passes its stripe's wire-encoded
			// claim updates on; the decoded copy becomes the claim state.
			if g.cols > 1 {
				var maxBytes int64
				var rowMax vtime.Duration
				for j := 0; j < g.cols; j++ {
					m := g.at(i, j)
					m.wirebuf = appendPairs(m.wirebuf[:0], m.pending, g.cfg.Compress)
					nb := int64(len(m.wirebuf))
					rowComm[i] += nb
					if nb > maxBytes {
						maxBytes = nb
					}
					if now := m.clock.Now(); now > rowMax {
						rowMax = now
					}
				}
				cost := g.cfg.Net.transfer(maxBytes)
				for j := 0; j < g.cols; j++ {
					g.at(i, j).clock.AdvanceTo(rowMax + cost)
				}
				for j := 0; j < g.cols; j++ {
					m := g.at(i, j)
					ps, _, derr := decodePairs(m.wirebuf, m.inbox[:0])
					if derr != nil {
						return derr
					}
					m.inbox = ps
					for _, pr := range ps {
						if g.cand[pr.child] == -1 {
							g.touched[i] = append(g.touched[i], pr.child)
						}
						g.cand[pr.child] = pr.parent
					}
				}
			} else {
				m := g.at(i, 0)
				for _, pr := range m.pending {
					if g.cand[pr.child] == -1 {
						g.touched[i] = append(g.touched[i], pr.child)
					}
					g.cand[pr.child] = pr.parent
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range rowComm {
		g.comm.BURing += rowComm[i]
	}
	// Commit claims (serial, after every row succeeded).
	chargeT := make([]vtime.Duration, g.rows*g.cols)
	for i := 0; i < g.rows; i++ {
		for _, v := range g.touched[i] {
			p := g.cand[v]
			if p == -1 {
				continue
			}
			g.tree[v] = p
			g.next.Set(int(v))
			claimed++
			g.cand[v] = -1
			chargeT[g.owner(v)] += cm.LocalAccess + 2*cm.BitmapProbe
		}
		g.touched[i] = g.touched[i][:0]
	}
	for idx, t := range chargeT {
		if t > 0 {
			g.charge(g.machines[idx], t)
		}
	}
	_, examined = g.tally()
	return claimed, examined, nil
}

// promote installs the next frontier: visited |= next, frontier = next
// (serial between levels, then reset).
func (g *Grid) promote(bfs.Direction) error {
	vw, nw, fw := g.visited.Words(), g.next.Words(), g.frontier.Words()
	for wi := range nw {
		vw[wi] |= nw[wi]
		fw[wi] = nw[wi]
	}
	g.next.Reset()
	g.barrier()
	return nil
}

package cluster

import (
	"errors"
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/vtime"
)

// Run executes one 2D-partitioned hybrid BFS from root. A level that
// hits an unrescuable storage failure (the mirror layer exhausts its
// replicas) marks that machine dead, pins the grid to the DRAM-resident
// bottom-up layout, and re-runs the level — the claim state is rolled
// back, so degraded runs stay bit-identical to healthy ones.
func (g *Grid) Run(root int64) (*Result, error) {
	if root < 0 || root >= g.n {
		return nil, fmt.Errorf("cluster: grid root %d outside [0,%d)", root, g.n)
	}
	for i := range g.tree {
		g.tree[i] = -1
	}
	g.visited.Reset()
	g.next.Reset()
	g.frontier.Reset()
	g.fview.Reset()
	g.comm = CommStats{}
	g.degraded = false
	g.deadMachines = nil
	for i := range g.machines {
		for _, m := range g.machines[i] {
			m.dead = false
			m.stacks.resetDevices()
		}
	}
	g.resetLevelScratch()

	g.tree[root] = root
	g.visited.Set(int(root))
	g.frontier.Set(int(root))

	res := &Result{Root: root, Visited: 1}
	dir := bfs.TopDown
	prevCount, curCount := int64(0), int64(1)
	// As in Cluster.Run: clocks never rewind, so time is measured from
	// wherever the previous run left them.
	runStart := vtime.MaxOf(g.allClocks())

	for level := 0; ; level++ {
		if level > int(g.n) {
			return nil, fmt.Errorf("cluster: grid runaway at level %d", level)
		}
		if level > 0 {
			newDir := bfs.NextDirection(dir, prevCount, curCount, float64(g.n), g.cfg.Alpha, g.cfg.Beta)
			if newDir != dir {
				res.Switches++
				dir = newDir
			}
		}
		start := vtime.MaxOf(g.allClocks())
		comm0 := g.comm

		var claimed, examined int64
		for {
			var err error
			claimed, examined, err = g.runLevel(dir)
			if err == nil {
				break
			}
			var me *machineError
			if !errors.As(err, &me) {
				return nil, err
			}
			if m := g.machineAt(me.machine); !m.dead {
				// Unrescuable storage death: declare the machine dead,
				// pin the grid to the DRAM-resident layout, roll the
				// level back and retry.
				m.dead = true
				g.degraded = true
				g.deadMachines = append(g.deadMachines, me.machine)
				g.resetLevelScratch()
				continue
			}
			return nil, err
		}

		g.allreduce(8)
		end := g.barrier()

		delta := g.comm.sub(comm0)
		res.Levels = append(res.Levels, LevelStats{
			Level:     level,
			Direction: dir,
			Frontier:  curCount,
			Claimed:   claimed,
			Examined:  examined,
			CommBytes: delta.Total(),
			Comm:      delta,
			Time:      end - start,
		})
		res.Visited += claimed
		if claimed == 0 {
			break
		}
		g.promoteNext()
		prevCount, curCount = curCount, claimed
	}
	res.Time = vtime.MaxOf(g.allClocks()) - runStart
	res.Tree = g.tree
	res.Comm = g.comm
	res.CommBytes = g.comm.Total()
	res.Degraded = g.degraded
	res.DeadMachines = append([]int(nil), g.deadMachines...)
	return res, nil
}

// runLevel distributes the frontier and executes one level in the
// layout dir and the degradation state call for.
func (g *Grid) runLevel(dir bfs.Direction) (claimed, examined int64, err error) {
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
	for i := range g.machines {
		for _, m := range g.machines[i] {
			for o := range m.outbox {
				m.outbox[o] = m.outbox[o][:0]
			}
			m.inbox = m.inbox[:0]
			m.pending = m.pending[:0]
		}
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
			g.colQ[j] = g.colQ[j][:0]
		}
		fragLen := make([]int64, g.rows)
		var total int64
		for r := 0; r < g.rows; r++ {
			m := g.machines[r][j]
			flo, fhi := lo+parts[r], lo+parts[r+1]
			if sparse {
				q := m.idsBuf[:0]
				g.frontier.ForEachSet(int(flo), int(fhi), func(i int) {
					q = append(q, int64(i))
				})
				m.idsBuf = q[:0]
				m.wirebuf = appendList(m.wirebuf[:0], q, g.cfg.Compress)
				dec, _, err := decodeList(m.wirebuf, g.colQ[j])
				if err != nil {
					return err
				}
				g.colQ[j] = dec
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
				g.machines[r][j].clock.Advance(g.cfg.Net.transfer(total - fragLen[r]))
			}
		}
	}
	return nil
}

// topDownLevel expands every block against the column queues; candidate
// (child, parent) pairs cross each processor row wire-encoded to their
// owners, who arbitrate by minimum parent — the single-node claim rule.
func (g *Grid) topDownLevel() (claimed, examined int64, err error) {
	cm := &g.cfg.Cost
	jobs := g.rows * g.cols
	// Phase 1: expansion (parallel; each job touches only its machine).
	err = runJobsErr(g.cfg.RealWorkers, jobs, func(idx int) error {
		m := g.machineAt(idx)
		m.examined, m.claimed = 0, 0
		for o := range m.outbox {
			m.outbox[o] = m.outbox[o][:0]
		}
		m.inbox = m.inbox[:0]
		base := g.colStart[m.j]
		var t vtime.Duration
		for _, u := range g.colQ[m.j] {
			t += cm.VertexOverhead
			parent := u
			serr := m.streamTD(u, base, &t, cm, func(v int64) bool {
				t += cm.EdgeCompute + cm.BitmapProbe
				m.examined++
				if !g.visited.Test(int(v)) {
					_, oj := g.ownerOf(v)
					m.outbox[oj] = append(m.outbox[oj], pair{v, parent})
					t += cm.QueueAppend
				}
				return true
			})
			if serr != nil {
				return &machineError{machine: idx, err: serr}
			}
		}
		for o := range m.outbox {
			m.outbox[o] = sortDedupPairs(m.outbox[o])
		}
		m.charge(g, t)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// Phase 2: wire-encoded candidate exchange across each row (serial).
	recv := make([]vtime.Duration, jobs)
	for i := 0; i < g.rows; i++ {
		for j := 0; j < g.cols; j++ {
			m := g.machines[i][j]
			for oj, box := range m.outbox {
				if oj == j || len(box) == 0 {
					continue
				}
				m.wirebuf = appendPairs(m.wirebuf[:0], box, g.cfg.Compress)
				nb := int64(len(m.wirebuf))
				g.comm.TDCandidate += nb
				oidx := i*g.cols + oj
				if done := m.clock.Now() + g.cfg.Net.transfer(nb); done > recv[oidx] {
					recv[oidx] = done
				}
				dst := g.machines[i][oj]
				dec, _, derr := decodePairs(m.wirebuf, dst.inbox)
				if derr != nil {
					return 0, 0, derr
				}
				dst.inbox = dec
			}
		}
	}
	// Phase 3: arbitration (parallel; ownerOf gives every child exactly
	// one owner, so tree writes never race).
	runJobs(g.cfg.RealWorkers, jobs, func(idx int) {
		m := g.machineAt(idx)
		if recv[idx] > m.clock.Now() {
			m.clock.AdvanceTo(recv[idx])
		}
		var t vtime.Duration
		claim := func(pr pair) {
			t += cm.EdgeCompute + cm.BitmapProbe
			if g.visited.Test(int(pr.child)) {
				return
			}
			if !g.next.Test(int(pr.child)) {
				g.next.Set(int(pr.child))
				g.tree[pr.child] = pr.parent
				t += cm.AtomicOp + cm.LocalAccess
				m.claimed++
			} else if pr.parent < g.tree[pr.child] {
				g.tree[pr.child] = pr.parent
			}
		}
		for _, pr := range m.outbox[m.j] {
			claim(pr)
		}
		for _, pr := range m.inbox {
			claim(pr)
		}
		m.charge(g, t)
	})
	for i := range g.machines {
		for _, m := range g.machines[i] {
			claimed += m.claimed
			examined += m.examined
		}
	}
	return claimed, examined, nil
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
		base := g.rowStart[i]
		for j := 0; j < g.cols; j++ {
			m := g.machines[i][j]
			m.examined, m.claimed = 0, 0
		}
		for s := 0; s < g.cols; s++ {
			for j := 0; j < g.cols; j++ {
				m := g.machines[i][j]
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
						serr = m.streamBU(v, base, &t, cm, func(u int64) bool {
							t += cm.EdgeCompute + cm.BitmapProbe
							m.examined++
							if g.fview.Test(int(u)) && (best == -1 || u < best) {
								best = u
							}
							return true
						})
					} else {
						serr = m.streamBU(v, base, &t, cm, func(u int64) bool {
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
				m.charge(g, t)
			}
			// Ring shift: each machine passes its stripe's wire-encoded
			// claim updates on; the decoded copy becomes the claim state.
			if g.cols > 1 {
				var maxBytes int64
				var rowMax vtime.Duration
				for j := 0; j < g.cols; j++ {
					m := g.machines[i][j]
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
					g.machines[i][j].clock.AdvanceTo(rowMax + cost)
				}
				for j := 0; j < g.cols; j++ {
					m := g.machines[i][j]
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
				m := g.machines[i][0]
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
			oi, oj := g.ownerOf(v)
			chargeT[oi*g.cols+oj] += cm.LocalAccess + 2*cm.BitmapProbe
		}
		g.touched[i] = g.touched[i][:0]
	}
	for idx, t := range chargeT {
		if t > 0 {
			g.machineAt(idx).charge(g, t)
		}
	}
	for i := range g.machines {
		for _, m := range g.machines[i] {
			examined += m.examined
		}
	}
	return claimed, examined, nil
}

// promoteNext installs the next frontier: visited |= next, frontier =
// next (serial between levels, then reset).
func (g *Grid) promoteNext() {
	vw, nw, fw := g.visited.Words(), g.next.Words(), g.frontier.Words()
	for wi := range nw {
		vw[wi] |= nw[wi]
		fw[wi] = nw[wi]
	}
	g.next.Reset()
	g.barrier()
}

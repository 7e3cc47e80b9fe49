package cluster

import (
	"fmt"
	"math/bits"
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// LevelStats records one distributed level.
type LevelStats struct {
	Level     int
	Direction bfs.Direction
	Frontier  int64
	Claimed   int64
	Examined  int64
	// CommBytes is this level's total interconnect traffic; Comm splits
	// it by phase.
	CommBytes int64
	Comm      CommStats
	Time      vtime.Duration
}

// Result is one distributed BFS outcome.
type Result struct {
	Root     int64
	Visited  int64
	Tree     []int64 // aliases cluster storage; valid until the next Run
	Levels   []LevelStats
	Time     vtime.Duration
	Switches int
	// CommBytes is the total interconnect traffic of the run; Comm
	// splits it by phase and encoding.
	CommBytes int64
	Comm      CommStats
	// Degraded reports that a machine's storage died unrescuably during
	// the run and the traversal finished from the DRAM-resident layout
	// (2D grid only); DeadMachines lists the dead machine indices.
	Degraded     bool
	DeadMachines []int
}

// machineError attributes a storage failure to one machine so the grid's
// rescue path knows whom to declare dead.
type machineError struct {
	machine int
	err     error
}

func (e *machineError) Error() string {
	return fmt.Sprintf("cluster: machine %d: %v", e.machine, e.err)
}
func (e *machineError) Unwrap() error { return e.err }

// Run executes one distributed hybrid BFS from root.
func (c *Cluster) Run(root int64) (*Result, error) {
	if root < 0 || root >= c.n {
		return nil, fmt.Errorf("cluster: root %d outside [0,%d)", root, c.n)
	}
	for i := range c.tree {
		c.tree[i] = -1
	}
	c.visited.Reset()
	c.frontier.Reset()
	c.next.Reset()
	c.comm = CommStats{}
	for _, m := range c.machines {
		m.stacks.resetDevices()
	}
	for k := range c.frontQ {
		c.frontQ[k] = c.frontQ[k][:0]
	}

	c.tree[root] = root
	c.visited.Set(int(root))
	owner := c.Owner(root)
	c.frontQ[owner] = append(c.frontQ[owner], root)

	res := &Result{Root: root, Visited: 1}
	dir := bfs.TopDown
	prevCount, curCount := int64(0), int64(1)
	// Machine clocks never rewind, so a reused cluster starts this run at
	// the previous run's end; Result.Time is measured from here.
	runStart := vtime.MaxOf(c.clocks())

	for level := 0; ; level++ {
		if level > int(c.n) {
			return nil, fmt.Errorf("cluster: runaway level %d", level)
		}
		if level > 0 {
			newDir := bfs.NextDirection(dir, prevCount, curCount, float64(c.n), c.cfg.Alpha, c.cfg.Beta)
			if newDir != dir {
				if err := c.convertFrontier(dir, newDir); err != nil {
					return nil, err
				}
				res.Switches++
				dir = newDir
			}
		}
		start := vtime.MaxOf(c.clocks())
		comm0 := c.comm
		var claimed, examined int64
		var err error
		if dir == bfs.TopDown {
			claimed, examined, err = c.topDownLevel()
		} else {
			claimed, examined = c.bottomUpLevel()
		}
		if err != nil {
			return nil, err
		}
		// Global claim count: an allreduce over P machines.
		c.allreduce(8)
		end := c.barrier()

		delta := c.comm.sub(comm0)
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
		if err := c.promoteNext(dir); err != nil {
			return nil, err
		}
		prevCount, curCount = curCount, claimed
	}
	res.Time = vtime.MaxOf(c.clocks()) - runStart
	res.Tree = c.tree
	res.Comm = c.comm
	res.CommBytes = c.comm.Total()
	return res, nil
}

func (c *Cluster) clocks() []*vtime.Clock {
	out := make([]*vtime.Clock, len(c.machines))
	for i, m := range c.machines {
		out[i] = m.clock
	}
	return out
}

// barrier aligns all machine clocks (one latency for the sync message).
func (c *Cluster) barrier() vtime.Duration {
	max := vtime.MaxOf(c.clocks())
	max += c.cfg.Net.Latency
	for _, m := range c.machines {
		m.clock.AdvanceTo(max)
	}
	return max
}

// allreduce charges a log2(P) reduction tree of small messages.
func (c *Cluster) allreduce(bytes int64) {
	p := len(c.machines)
	steps := bits.Len(uint(p - 1))
	cost := vtime.Duration(steps) * c.cfg.Net.transfer(bytes)
	for _, m := range c.machines {
		m.clock.Advance(cost)
	}
	c.comm.Control += int64(steps) * bytes * int64(p)
}

// charge adds compute time t to machine m, scaled by its core count
// (machine-level aggregate throughput model).
func (m *machine) charge(c *Cluster, t vtime.Duration) {
	m.clock.Advance(t / vtime.Duration(c.cfg.CoresPerMachine))
}

// sortDedupPairs orders candidates by (child, parent) and keeps only the
// smallest parent per child. Outboxes become deterministic regardless of
// discovery interleaving, and the kept pair is exactly the one min-parent
// arbitration would pick, so dropping the rest loses nothing.
func sortDedupPairs(ps []pair) []pair {
	if len(ps) < 2 {
		return ps
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].child != ps[b].child {
			return ps[a].child < ps[b].child
		}
		return ps[a].parent < ps[b].parent
	})
	out := ps[:1]
	for _, p := range ps[1:] {
		if p.child != out[len(out)-1].child {
			out = append(out, p)
		}
	}
	return out
}

// topDownLevel expands each machine's local frontier queue into
// per-owner candidate outboxes, ships the remote boxes wire-encoded, and
// lets each owner arbitrate its children by minimum parent — the same
// claim rule as the single-node engine's min-parent CAS, which keeps the
// parent tree bit-identical across worker counts and topologies.
func (c *Cluster) topDownLevel() (claimed, examined int64, err error) {
	cm := &c.cfg.Cost
	p := len(c.machines)
	// Phase 1: expansion (parallel; each job touches only machine k's
	// state, reading visited bits frozen since the previous level).
	err = runJobsErr(c.cfg.RealWorkers, p, func(k int) error {
		m := c.machines[k]
		m.examined, m.claimed = 0, 0
		for o := range m.outbox {
			m.outbox[o] = m.outbox[o][:0]
		}
		m.inbox = m.inbox[:0]
		var t vtime.Duration
		for _, v := range c.frontQ[k] {
			t += cm.VertexOverhead
			parent := v
			emit := func(w int64) bool {
				t += cm.EdgeCompute + cm.BitmapProbe
				m.examined++
				if !c.visited.Test(int(w)) {
					o := c.Owner(w)
					m.outbox[o] = append(m.outbox[o], pair{w, parent})
					t += cm.QueueAppend
				}
				return true
			}
			if m.indexStore != nil {
				if _, serr := semiext.StreamIndexedNeighbors(
					m.indexStore, m.valueStore, m.clock, m.compressed,
					v, v-m.lo, &m.readBuf, &m.idsBuf, 0, emit); serr != nil {
					return &machineError{machine: k, err: serr}
				}
			} else {
				nbs := m.adj.Neighbors(v)
				t += cm.LocalAccess + cm.Stream(len(nbs)*8)
				for _, w := range nbs {
					emit(w)
				}
			}
		}
		for o := range m.outbox {
			m.outbox[o] = sortDedupPairs(m.outbox[o])
		}
		m.charge(c, t)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// Phase 2: all-to-all candidate exchange (serial). The wire bytes are
	// what the codec actually produced, and the receiver works from the
	// decoded copy, so the codec is load-bearing, not just accounted.
	recv := make([]vtime.Duration, p)
	for _, m := range c.machines {
		for o, box := range m.outbox {
			if o == m.id || len(box) == 0 {
				continue
			}
			m.wirebuf = appendPairs(m.wirebuf[:0], box, c.cfg.Compress)
			nb := int64(len(m.wirebuf))
			c.comm.TDCandidate += nb
			if done := m.clock.Now() + c.cfg.Net.transfer(nb); done > recv[o] {
				recv[o] = done
			}
			dst := c.machines[o]
			dec, _, derr := decodePairs(m.wirebuf, dst.inbox)
			if derr != nil {
				return 0, 0, derr
			}
			dst.inbox = dec
		}
	}
	// Phase 3: arbitration (parallel; every child has exactly one owner,
	// so tree writes never race, and next-bitmap word sharing is atomic).
	runJobs(c.cfg.RealWorkers, p, func(k int) {
		dst := c.machines[k]
		if recv[k] > dst.clock.Now() {
			dst.clock.AdvanceTo(recv[k])
		}
		var t vtime.Duration
		claim := func(pr pair) {
			t += cm.EdgeCompute + cm.BitmapProbe
			if c.visited.Test(int(pr.child)) {
				return
			}
			if !c.next.Test(int(pr.child)) {
				c.next.Set(int(pr.child))
				c.tree[pr.child] = pr.parent
				t += cm.AtomicOp + cm.LocalAccess
				dst.claimed++
			} else if pr.parent < c.tree[pr.child] {
				c.tree[pr.child] = pr.parent
			}
		}
		for _, pr := range dst.outbox[k] {
			claim(pr)
		}
		for _, pr := range dst.inbox {
			claim(pr)
		}
		dst.charge(c, t)
	})
	for _, m := range c.machines {
		claimed += m.claimed
		examined += m.examined
	}
	return claimed, examined, nil
}

// bottomUpLevel scans each machine's unvisited vertices against the full
// frontier bitmap (replicated by the previous allgather). The backward
// adjacency stays in DRAM — the semi-external placement — so this
// direction cannot hit storage faults. Each vertex is scanned by exactly
// one machine (word ranges are disjoint) and claims the first frontier
// neighbor of its degree-sorted list, the single-node rule.
func (c *Cluster) bottomUpLevel() (claimed, examined int64) {
	cm := &c.cfg.Cost
	runJobs(c.cfg.RealWorkers, len(c.machines), func(k int) {
		m := c.machines[k]
		m.examined, m.claimed = 0, 0
		var t vtime.Duration
		wordLo := int(m.lo+63) / 64
		if m.id == 0 {
			wordLo = 0
		}
		wordHi := (int(m.hi) + 63) / 64
		for wi := wordLo; wi < wordHi; wi++ {
			t += cm.Stream(8)
			unvisited := ^c.visited.WordAt(wi)
			base := int64(wi * 64)
			if base+64 > c.n {
				unvisited &= (1 << uint(c.n-base)) - 1
			}
			for unvisited != 0 {
				b := bits.TrailingZeros64(unvisited)
				unvisited &= unvisited - 1
				v := base + int64(b)
				t += cm.VertexOverhead
				// Straddling words: the word's scanner handles vertices
				// owned by the neighboring machine too, reading the true
				// owner's adjacency.
				mv := m
				if v < m.lo || v >= m.hi {
					mv = c.machines[c.Owner(v)]
				}
				nbs := mv.adj.Neighbors(v)
				var parent int64 = -1
				scanned := 0
				for _, nb := range nbs {
					scanned++
					if c.frontier.Test(int(nb)) {
						parent = nb
						break
					}
				}
				m.examined += int64(scanned)
				t += (cm.EdgeCompute + cm.BitmapProbe) * vtime.Duration(scanned)
				t += cm.Stream(scanned * 8)
				if parent >= 0 {
					c.tree[v] = parent
					c.visited.Set(int(v))
					c.next.Set(int(v))
					t += cm.LocalAccess + 2*cm.BitmapProbe
					m.claimed++
				}
			}
		}
		m.charge(c, t)
	})
	for _, m := range c.machines {
		claimed += m.claimed
		examined += m.examined
	}
	return claimed, examined
}

// promoteNext installs the next frontier in dir's representation.
func (c *Cluster) promoteNext(dir bfs.Direction) error {
	p := len(c.machines)
	if dir == bfs.TopDown {
		// Each machine marks its claims visited and extracts its owned
		// range of the next bitmap into its frontier queue.
		for _, m := range c.machines {
			q := c.frontQ[m.id][:0]
			forEachSetAtomic(c.next, int(m.lo), int(m.hi), func(i int) {
				c.visited.Set(i)
				q = append(q, int64(i))
			})
			c.frontQ[m.id] = q
			m.charge(c, c.cfg.Cost.Stream(int(m.hi-m.lo)/8+len(q)*8))
		}
		c.frontier.Reset()
	} else {
		// Allgather: every machine broadcasts its wire-encoded fragment of
		// the next bitmap; the frontier everyone scans next level is the
		// decoded copy.
		frags := make([][]byte, p)
		var total int64
		for _, m := range c.machines {
			frag := appendBitmap(nil, c.next.Test, int(m.lo), int(m.hi), c.cfg.Compress)
			frags[m.id] = frag
			total += int64(len(frag))
			c.comm.BUAllgather += int64(len(frag)) * int64(p-1)
		}
		for _, m := range c.machines {
			m.clock.Advance(c.cfg.Net.transfer(total - int64(len(frags[m.id]))))
		}
		c.frontier.Reset()
		for _, m := range c.machines {
			lo := int(m.lo)
			if _, _, err := decodeBitmap(frags[m.id], int(m.hi-m.lo), func(i int) {
				c.frontier.Set(lo + i)
			}); err != nil {
				return err
			}
		}
	}
	c.next.Reset()
	c.barrier()
	return nil
}

// convertFrontier switches the frontier representation at a direction
// change.
func (c *Cluster) convertFrontier(from, to bfs.Direction) error {
	p := len(c.machines)
	switch {
	case from == bfs.TopDown && to == bfs.BottomUp:
		// Queues -> global bitmap: each machine publishes its queue as a
		// wire-encoded sparse vertex list (an allgather).
		frags := make([][]byte, p)
		var total int64
		for k, q := range c.frontQ {
			frag := appendList(nil, q, c.cfg.Compress)
			frags[k] = frag
			total += int64(len(frag))
			c.comm.BUAllgather += int64(len(frag)) * int64(p-1)
			c.machines[k].charge(c, c.cfg.Cost.Stream(len(q)*8))
		}
		for _, m := range c.machines {
			m.clock.Advance(c.cfg.Net.transfer(total - int64(len(frags[m.id]))))
		}
		c.frontier.Reset()
		for k := range frags {
			vs, _, err := decodeList(frags[k], c.machines[k].idsBuf[:0])
			if err != nil {
				return err
			}
			for _, v := range vs {
				c.frontier.Set(int(v))
			}
			c.machines[k].idsBuf = vs[:0]
		}
		c.barrier()
		return nil
	case from == bfs.BottomUp && to == bfs.TopDown:
		// Bitmap -> per-machine queues (local extraction, no comm).
		for _, m := range c.machines {
			q := c.frontQ[m.id][:0]
			c.frontier.ForEachSet(int(m.lo), int(m.hi), func(i int) {
				q = append(q, int64(i))
			})
			c.frontQ[m.id] = q
			m.charge(c, c.cfg.Cost.Stream(int(m.hi-m.lo)/8+len(q)*8))
		}
		c.frontier.Reset()
		c.barrier()
		return nil
	default:
		return fmt.Errorf("cluster: bad conversion %v -> %v", from, to)
	}
}

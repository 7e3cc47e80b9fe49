package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/enc"
	"semibfs/internal/nvm"
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

// MachineStatus is one machine's post-run report.
type MachineStatus struct {
	// Row, Col place the machine in its grid (row 0 on the 1D layout).
	Row, Col int
	// Dead reports unrescuable storage death (the grid finished in
	// degraded mode).
	Dead bool
	// Device is the machine's primary device snapshot (zero without
	// offload); Health its merged replica health (nil without
	// mirroring).
	Device nvm.Stats
	Health []nvm.ReplicaHealth
	// Time is the machine's virtual clock.
	Time vtime.Duration
}

// machineError attributes a storage failure to one machine so the rescue
// path knows whom to declare dead.
type machineError struct {
	machine int
	err     error
}

func (e *machineError) Error() string {
	return fmt.Sprintf("cluster: machine %d: %v", e.machine, e.err)
}
func (e *machineError) Unwrap() error { return e.err }

type pair struct{ child, parent int64 }

// block is one machine's adjacency in one direction: a CSR over the
// sources [Base, Base+Len), resident in DRAM, offloaded to an index/value
// stack pair, or both. With compression on, the stored index holds byte
// offsets of delta+varint blocks instead of element offsets of raw int64s.
type block struct {
	csr.LocalGraph             // Index/Value are nil once the DRAM copy is dropped
	idx, val       nvm.Storage // nil unless offloaded
}

// machine is one simulated node of either layout: its clock, its storage
// plumbing, its adjacency blocks and its per-level scratch.
type machine struct {
	clock *vtime.Clock
	// stacks is nil when the adjacency stays in DRAM.
	stacks *nodeStacks
	// td is streamed by the shared top-down expansion. The 1D layout keeps
	// only td, whose DRAM copy also serves the bottom-up scan (backward
	// adjacency in DRAM only — the paper's placement); a grid machine has
	// a separate transpose bu and streams it from its own stacks.
	td, bu block
	// dead pins the machine to its DRAM copies (set by the rescue path).
	dead bool

	readBuf []byte
	idsBuf  []int64
	wirebuf []byte
	// Per-level outboxes: top-down candidate (child, parent) pairs per
	// peer of the exchange group, plus the wire-decoded inbox and the
	// grid's bottom-up claim updates for the stripe in hand.
	outbox  [][]pair
	inbox   []pair
	pending []pair
	// Per-level accumulators, reduced after each parallel phase.
	examined int64
	claimed  int64
}

// resetBoxes empties the machine's per-level message scratch.
func (m *machine) resetBoxes() {
	for o := range m.outbox {
		m.outbox[o] = m.outbox[o][:0]
	}
	m.inbox = m.inbox[:0]
	m.pending = m.pending[:0]
}

// layout is what differs between the 1D cluster and the 2D grid: the
// collectives that move the frontier around the shared top-down exchange,
// and the bottom-up level.
type layout interface {
	// install clears layout-private state and places root as the level-0
	// top-down frontier.
	install(root int64)
	// redirect converts the frontier representation at a direction switch.
	redirect(from, to bfs.Direction) error
	// level executes one level in direction dir and returns its global
	// claim and examined-edge counts.
	level(dir bfs.Direction) (claimed, examined int64, err error)
	// promote installs the next bitmap as the frontier following a level
	// run in direction dir.
	promote(dir bfs.Direction) error
}

// core is the scaffold both layouts embed: the machines, the globally
// addressed BFS status data, the interconnect accounting and the level
// loop. Machine k (row-major on the grid) owns the status of vertices
// [ownStart[k], ownStart[k+1]) and exchanges top-down candidates with the
// cols machines of its group k/cols — all P machines on the 1D layout, one
// processor row on the grid.
type core struct {
	cfg      Config
	n        int64
	cols     int
	ownStart []int64
	machines []*machine
	clocks   []*vtime.Clock
	lay      layout
	// rollback, when set, undoes a failed level attempt's scratch so the
	// level can be retried with the failing machine declared dead. Only a
	// layout that can finish from DRAM-resident state installs it.
	rollback func()

	// BFS status data (each machine writes only what it owns, so single
	// arrays stand in for per-machine copies). visited and next are atomic
	// because owner ranges straddle words.
	tree     []int64
	visited  *bitmap.Atomic
	next     *bitmap.Atomic
	frontier *bitmap.Bitmap
	// queues[j] is the top-down frontier queue of the machines in column j
	// of every exchange group.
	queues [][]int64

	// comm accumulates interconnect usage per Run, split by phase.
	comm         CommStats
	degraded     bool
	deadMachines []int
}

// init builds len(ownStart)-1 machines, each with its own storage plumbing
// when the configuration offloads, and the shared status arrays.
func (c *core) init(cfg Config, n int64, cols int, ownStart []int64, lay layout) {
	*c = core{
		cfg: cfg, n: n, cols: cols, ownStart: ownStart, lay: lay,
		tree:     make([]int64, n),
		visited:  bitmap.NewAtomic(int(n)),
		next:     bitmap.NewAtomic(int(n)),
		frontier: bitmap.New(int(n)),
		queues:   make([][]int64, cols),
	}
	for k := 0; k+1 < len(ownStart); k++ {
		m := &machine{clock: vtime.NewClock(0), outbox: make([][]pair, cols)}
		if cfg.ForwardOnNVM {
			m.stacks = newNodeStacks(cfg, k)
			m.readBuf = make([]byte, nvm.DefaultChunkSize)
		}
		c.machines = append(c.machines, m)
		c.clocks = append(c.clocks, m.clock)
	}
}

// offload builds the stack pair name-idx / name-val on machine m and
// writes block b through it, raw or as one delta+varint block per source
// (untimed setup clock; per-run device stats start from Run's device
// reset).
func (c *core) offload(m *machine, b *block, name string) error {
	var err error
	if b.idx, err = m.stacks.build(c.cfg, name+"-idx"); err != nil {
		return err
	}
	if b.val, err = m.stacks.build(c.cfg, name+"-val"); err != nil {
		return err
	}
	setup := vtime.NewClock(0)
	if !c.cfg.Compress {
		if err := semiext.WriteInt64s(b.idx, setup, b.Index); err != nil {
			return err
		}
		return semiext.WriteInt64s(b.val, setup, b.Value)
	}
	local := len(b.Index) - 1
	offs := make([]int64, local+1)
	var blob []byte
	for k := 0; k < local; k++ {
		offs[k] = int64(len(blob))
		blob = enc.AppendList(blob, b.Base+int64(k), b.Value[b.Index[k]:b.Index[k+1]])
	}
	offs[local] = int64(len(blob))
	if err := semiext.WriteInt64s(b.idx, setup, offs); err != nil {
		return err
	}
	return semiext.WriteBytes(b.val, setup, blob)
}

// stream calls fn for source u's neighbours in machine m's block b until fn
// returns false: from the block's stacks when it is offloaded (the NVM requests
// charge m's clock), from the DRAM copy (charged to *t) otherwise. A dead
// machine reads DRAM — the degraded residence; only blocks that keep their
// DRAM copy are streamed once a machine has died.
func (c *core) stream(m *machine, b *block, u int64, t *vtime.Duration, fn func(v int64) bool) error {
	if b.idx == nil || m.dead {
		nbs := b.Neighbors(u)
		*t += c.cfg.Cost.LocalAccess + c.cfg.Cost.Stream(len(nbs)*8)
		for _, w := range nbs {
			if !fn(w) {
				break
			}
		}
		return nil
	}
	_, err := semiext.StreamIndexedNeighbors(b.idx, b.val, m.clock, c.cfg.Compress,
		u, u-b.Base, &m.readBuf, &m.idsBuf, 0, fn)
	return err
}

// charge adds compute time t to machine m, scaled by its core count
// (machine-level aggregate throughput model).
func (c *core) charge(m *machine, t vtime.Duration) {
	m.clock.Advance(t / vtime.Duration(c.cfg.CoresPerMachine))
}

// barrier aligns all machine clocks (one latency for the sync message).
func (c *core) barrier() vtime.Duration {
	max := vtime.MaxOf(c.clocks) + c.cfg.Net.Latency
	for _, cl := range c.clocks {
		cl.AdvanceTo(max)
	}
	return max
}

// allreduce charges a log2(P) reduction tree of small messages.
func (c *core) allreduce(bytes int64) {
	p := len(c.machines)
	steps := bits.Len(uint(p - 1))
	cost := vtime.Duration(steps) * c.cfg.Net.transfer(bytes)
	for _, cl := range c.clocks {
		cl.Advance(cost)
	}
	c.comm.Control += int64(steps) * bytes * int64(p)
}

// tally reduces the machines' per-level accumulators.
func (c *core) tally() (claimed, examined int64) {
	for _, m := range c.machines {
		claimed += m.claimed
		examined += m.examined
	}
	return claimed, examined
}

// owner returns the machine owning vertex v's status.
func (c *core) owner(v int64) int { return blockOf(v, c.ownStart) }

// blockOf returns the block of starts containing v (the last one starting
// at or before it, so empty blocks own nothing).
func blockOf(v int64, starts []int64) int {
	lo, hi := 0, len(starts)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if v >= starts[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// NumMachines returns the total machine count.
func (c *core) NumMachines() int { return len(c.machines) }

// Close releases every machine's storage stacks (exactly once each).
func (c *core) Close() error {
	var first error
	for _, m := range c.machines {
		if err := m.stacks.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MachineReport returns per-machine device and health status, row-major.
// Run resets every device at entry, so after a run the report holds that
// run's traffic alone.
func (c *core) MachineReport() []MachineStatus {
	out := make([]MachineStatus, 0, len(c.machines))
	for k, m := range c.machines {
		st := MachineStatus{Row: k / c.cols, Col: k % c.cols, Dead: m.dead, Time: m.clock.Now()}
		if m.stacks != nil {
			if len(m.stacks.devs) > 0 {
				st.Device = m.stacks.devs[0].Snapshot()
			}
			st.Health = nvm.CollectReplicaHealth(m.stacks.stores...)
		}
		out = append(out, st)
	}
	return out
}

// Run executes one distributed hybrid BFS from root. On a layout that can
// finish from DRAM-resident state (the grid), a level that hits an
// unrescuable storage failure — the mirror layer exhausted its replicas —
// marks that machine dead, rolls the level back and re-runs it; claims are
// committed only by a level that fully succeeds, so degraded runs stay
// bit-identical to healthy ones.
func (c *core) Run(root int64) (*Result, error) {
	if root < 0 || root >= c.n {
		return nil, fmt.Errorf("cluster: root %d outside [0,%d)", root, c.n)
	}
	for i := range c.tree {
		c.tree[i] = -1
	}
	c.visited.Reset()
	c.next.Reset()
	c.frontier.Reset()
	c.comm = CommStats{}
	c.degraded, c.deadMachines = false, nil
	for _, m := range c.machines {
		m.dead = false
		m.stacks.resetDevices()
	}
	for j := range c.queues {
		c.queues[j] = c.queues[j][:0]
	}
	c.tree[root] = root
	c.visited.Set(int(root))
	c.lay.install(root)

	res := &Result{Root: root, Visited: 1}
	dir := bfs.TopDown
	prevCount, curCount := int64(0), int64(1)
	// Machine clocks never rewind, so a reused cluster starts this run at
	// the previous run's end and Result.Time is measured from there. A run
	// that failed mid-level left the clocks apart; aligning them keeps the
	// laggards from working for free (a no-op after a successful run,
	// which ends on a barrier).
	runStart := vtime.MaxOf(c.clocks)
	for _, cl := range c.clocks {
		cl.AdvanceTo(runStart)
	}

	for level := 0; ; level++ {
		if level > int(c.n) {
			return nil, fmt.Errorf("cluster: runaway level %d", level)
		}
		if level > 0 {
			newDir := bfs.NextDirection(dir, prevCount, curCount, float64(c.n), c.cfg.Alpha, c.cfg.Beta)
			if newDir != dir {
				if err := c.lay.redirect(dir, newDir); err != nil {
					return nil, err
				}
				res.Switches++
				dir = newDir
			}
		}
		start := vtime.MaxOf(c.clocks)
		comm0 := c.comm

		claimed, examined, err := c.lay.level(dir)
		for err != nil {
			var me *machineError
			if c.rollback == nil || !errors.As(err, &me) || c.machines[me.machine].dead {
				return nil, err
			}
			c.machines[me.machine].dead = true
			c.degraded = true
			c.deadMachines = append(c.deadMachines, me.machine)
			c.rollback()
			claimed, examined, err = c.lay.level(dir)
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
		if err := c.lay.promote(dir); err != nil {
			return nil, err
		}
		prevCount, curCount = curCount, claimed
	}
	res.Time = vtime.MaxOf(c.clocks) - runStart
	res.Tree = c.tree
	res.Comm = c.comm
	res.CommBytes = c.comm.Total()
	res.Degraded = c.degraded
	res.DeadMachines = append([]int(nil), c.deadMachines...)
	return res, nil
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

// topDownLevel expands every machine's td block against its column's
// frontier queue into per-peer candidate outboxes, ships the remote boxes
// wire-encoded across the exchange group, and lets each owner arbitrate
// its children by minimum parent — the same claim rule as the single-node
// engine's min-parent CAS, which keeps the parent tree bit-identical
// across worker counts and topologies.
func (c *core) topDownLevel() (claimed, examined int64, err error) {
	cm := &c.cfg.Cost
	p := len(c.machines)
	// Phase 1: expansion (parallel; each job touches only machine k's
	// state, reading visited bits frozen since the previous level).
	err = runJobsErr(c.cfg.RealWorkers, p, func(k int) error {
		m := c.machines[k]
		m.examined, m.claimed = 0, 0
		m.resetBoxes()
		var t vtime.Duration
		for _, u := range c.queues[k%c.cols] {
			t += cm.VertexOverhead
			parent := u
			serr := c.stream(m, &m.td, u, &t, func(v int64) bool {
				t += cm.EdgeCompute + cm.BitmapProbe
				m.examined++
				if !c.visited.Test(int(v)) {
					o := c.owner(v) % c.cols
					m.outbox[o] = append(m.outbox[o], pair{v, parent})
					t += cm.QueueAppend
				}
				return true
			})
			if serr != nil {
				return &machineError{machine: k, err: serr}
			}
		}
		for o := range m.outbox {
			m.outbox[o] = sortDedupPairs(m.outbox[o])
		}
		c.charge(m, t)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// Phase 2: candidate exchange within each group (serial). The wire
	// bytes are what the codec actually produced, and the receiver works
	// from the decoded copy, so the codec is load-bearing, not just
	// accounted.
	recv := make([]vtime.Duration, p)
	for k, m := range c.machines {
		for o, box := range m.outbox {
			if o == k%c.cols || len(box) == 0 {
				continue
			}
			m.wirebuf = appendPairs(m.wirebuf[:0], box, c.cfg.Compress)
			nb := int64(len(m.wirebuf))
			c.comm.TDCandidate += nb
			peer := k - k%c.cols + o
			if done := m.clock.Now() + c.cfg.Net.transfer(nb); done > recv[peer] {
				recv[peer] = done
			}
			dst := c.machines[peer]
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
		m := c.machines[k]
		if recv[k] > m.clock.Now() {
			m.clock.AdvanceTo(recv[k])
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
				m.claimed++
			} else if pr.parent < c.tree[pr.child] {
				c.tree[pr.child] = pr.parent
			}
		}
		for _, pr := range m.outbox[k%c.cols] {
			claim(pr)
		}
		for _, pr := range m.inbox {
			claim(pr)
		}
		c.charge(m, t)
	})
	claimed, examined = c.tally()
	return claimed, examined, nil
}

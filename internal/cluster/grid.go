package cluster

import (
	"fmt"
	"math/bits"
	"sort"

	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/enc"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// Grid is the 2D-partitioned distributed hybrid BFS of Beamer et al.
// (MTAAP 2013) — the paper's citation [14] for multi-node direction-
// optimizing BFS. The adjacency matrix is blocked over an R x C processor
// grid: machine (i,j) owns the directed edges whose source lies in column
// block j and whose destination lies in row block i. Vertex status is
// striped so machine (i,j) owns the j-th slice of row block i.
//
// Every grid machine is a full semi-external node: its edge blocks are
// written through its own nvm.BuildStack storage stack (metrics, retry,
// async pipeline, page cache, mirroring, checksums, optional delta+varint
// compression), its clock is charged for every NVM request, and its fault
// stream is independent — so node death composes with the mirror failover
// machinery. A machine whose storage dies unrescuably pins the whole grid
// to the DRAM-resident bottom-up layout: top-down levels are emulated
// from the transpose under the same min-parent claim rule, which keeps
// even degraded runs bit-identical to the single-node engine.
//
// Communication per level follows the 2D schedule:
//
//   - top-down: the frontier fragment of column block j is allgathered
//     down each processor column (R-1 fragments in, instead of the 1D
//     layout's P-1) as wire-encoded sparse vertex lists, each machine
//     expands its block, and candidate parents travel across each
//     processor row to their owners, who arbitrate by minimum parent;
//   - bottom-up: frontier bitmap fragments allgather down columns, then
//     each row performs C ring sub-phases — machine (i,j) scans one
//     stripe of row i against its own edge block, carrying the stripe's
//     best claim so far, and ring-shifts the wire-encoded claim updates
//     to the next machine, exactly Beamer's rotating scheme.
//
// The point of 2D is communication volume: collectives span sqrt(P)
// machines instead of P, which the CommStats accounting exposes (see the
// Scaling2D experiment).
type Grid struct {
	cfg  Config
	rows int
	cols int
	n    int64
	// deg holds every vertex's undirected degree — the bottom-up
	// scan-order key (hubs first), shared by all blocks so the claim
	// comparator is global.
	deg []int64

	// blocks[i][j] is a CSR over column block j's sources, restricted to
	// destinations in row block i, neighbor lists ascending (the
	// top-down layout; nil once offloaded to the machine's stack);
	// bu[i][j] is the transpose — a CSR over row block i's destinations
	// listing their sources in column block j, neighbor lists sorted
	// hubs-first (the bottom-up layout, always DRAM-resident: it is the
	// degraded-mode residence).
	blocks   [][]*gridBlock
	bu       [][]*gridBlock
	machines [][]*gridMachine

	// rowStart[i] / colStart[j] delimit the vertex blocks.
	rowStart []int64
	colStart []int64

	tree    []int64
	visited *bitmap.Atomic
	next    *bitmap.Atomic
	// frontier is the authoritative current-frontier bitmap; fview is
	// the wire-decoded replica the scans actually read, and colQ the
	// wire-decoded per-column top-down queues — the codec is in the
	// data path, not just the accounting.
	frontier *bitmap.Bitmap
	fview    *bitmap.Bitmap
	colQ     [][]int64

	// cand is the bottom-up rotating claim state (best parent candidate
	// per vertex, -1 when none); touched[i] lists row block i's vertices
	// with live candidates so failed level attempts can roll back.
	cand    []int64
	touched [][]int64

	comm         CommStats
	degraded     bool
	deadMachines []int
}

// gridMachine is one grid processor: its clock, its storage stacks, and
// its per-level scratch.
type gridMachine struct {
	i, j  int
	clock *vtime.Clock

	td *gridBlock // DRAM top-down block; nil when offloaded
	bu *gridBlock // DRAM bottom-up block; always retained

	stacks     *nodeStacks
	tdIdx      nvm.Storage
	tdVal      nvm.Storage
	buIdx      nvm.Storage
	buVal      nvm.Storage
	compressed bool
	dead       bool

	readBuf []byte
	idsBuf  []int64
	wirebuf []byte
	outbox  [][]pair // top-down candidates per destination column
	inbox   []pair
	pending []pair // bottom-up claim updates for the stripe in hand

	examined int64
	claimed  int64
}

type gridBlock struct {
	// index over local sources (colStart[j] .. colStart[j+1]).
	index []int64
	value []int64
	base  int64
}

func (b *gridBlock) neighbors(u int64) []int64 {
	i := u - b.base
	return b.value[b.index[i]:b.index[i+1]]
}

// GridShape returns the most square R x C factorization of p.
func GridShape(p int) (rows, cols int) {
	if p < 1 {
		return 1, 1
	}
	r := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			r = d
		}
	}
	return r, p / r
}

// BuildGrid partitions src over the most square R x C grid with
// cfg.Machines processors, offloading every machine's blocks through its
// own storage stack when cfg.ForwardOnNVM is set.
func BuildGrid(src edgelist.Source, cfg Config) (*Grid, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows, cols := GridShape(cfg.Machines)
	if cfg.GridRows > 0 && cfg.GridCols > 0 {
		rows, cols = cfg.GridRows, cfg.GridCols
	}
	n := src.NumVertices()
	deg, err := csr.Degrees(src)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		cfg:      cfg,
		rows:     rows,
		cols:     cols,
		n:        n,
		deg:      deg,
		rowStart: blockStarts(n, rows),
		colStart: blockStarts(n, cols),
		tree:     make([]int64, n),
		visited:  bitmap.NewAtomic(int(n)),
		next:     bitmap.NewAtomic(int(n)),
		frontier: bitmap.New(int(n)),
		fview:    bitmap.New(int(n)),
		colQ:     make([][]int64, cols),
		cand:     make([]int64, n),
		touched:  make([][]int64, rows),
	}
	for i := range g.cand {
		g.cand[i] = -1
	}
	g.blocks = make([][]*gridBlock, rows)
	g.bu = make([][]*gridBlock, rows)
	g.machines = make([][]*gridMachine, rows)
	for i := 0; i < rows; i++ {
		g.blocks[i] = make([]*gridBlock, cols)
		g.bu[i] = make([]*gridBlock, cols)
		g.machines[i] = make([]*gridMachine, cols)
		for j := 0; j < cols; j++ {
			g.blocks[i][j] = &gridBlock{base: g.colStart[j]}
			g.bu[i][j] = &gridBlock{base: g.rowStart[i]}
			g.machines[i][j] = &gridMachine{
				i: i, j: j,
				clock:  vtime.NewClock(0),
				outbox: make([][]pair, cols),
			}
		}
	}
	// The top-down blocks index by source u; the bottom-up transpose
	// indexes by destination v. Both are filled in one count pass and
	// one placement pass over the edge list.
	if err := g.fillBlocks(src, false); err != nil {
		return nil, err
	}
	if err := g.fillBlocks(src, true); err != nil {
		return nil, err
	}
	g.sortBlocks()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m := g.machines[i][j]
			m.td = g.blocks[i][j]
			m.bu = g.bu[i][j]
			if cfg.ForwardOnNVM {
				if err := g.offloadMachine(m, cfg); err != nil {
					g.Close()
					return nil, err
				}
				// Semi-external placement: the top-down block now lives
				// only on the machine's stack.
				m.td = nil
				g.blocks[i][j] = nil
			}
		}
	}
	return g, nil
}

// sortBlocks orders every top-down neighbor list ascending and every
// bottom-up list by the single-node engine's hubs-first comparator
// (degree descending, ID ascending). Because each neighbor lives in
// exactly one column block, merging per-block minima under the same
// global comparator reproduces the single-node scan order — the heart of
// the cross-topology bit-identity contract.
func (g *Grid) sortBlocks() {
	deg := g.deg
	for i := range g.blocks {
		for j := range g.blocks[i] {
			sortBlockLists(g.blocks[i][j], func(a, b int64) bool { return a < b })
			sortBlockLists(g.bu[i][j], func(a, b int64) bool {
				if deg[a] != deg[b] {
					return deg[a] > deg[b]
				}
				return a < b
			})
		}
	}
}

func sortBlockLists(b *gridBlock, less func(a, b int64) bool) {
	for k := 0; k+1 < len(b.index); k++ {
		seg := b.value[b.index[k]:b.index[k+1]]
		sort.Slice(seg, func(x, y int) bool { return less(seg[x], seg[y]) })
	}
}

// better reports whether u precedes c in the bottom-up scan order.
func (g *Grid) better(u, c int64) bool {
	if g.deg[u] != g.deg[c] {
		return g.deg[u] > g.deg[c]
	}
	return u < c
}

// offloadMachine builds machine m's four stacks and writes both of its
// blocks through them.
func (g *Grid) offloadMachine(m *gridMachine, cfg Config) error {
	ns := newNodeStacks(cfg, m.i*g.cols+m.j)
	m.stacks = ns
	prefix := fmt.Sprintf("g%dx%d", m.i, m.j)
	var err error
	if m.tdIdx, err = ns.build(cfg, prefix+"-td-idx"); err != nil {
		return err
	}
	if m.tdVal, err = ns.build(cfg, prefix+"-td-val"); err != nil {
		return err
	}
	if m.buIdx, err = ns.build(cfg, prefix+"-bu-idx"); err != nil {
		return err
	}
	if m.buVal, err = ns.build(cfg, prefix+"-bu-val"); err != nil {
		return err
	}
	m.compressed = cfg.Compress
	if err := writeBlock(m.td, m.tdIdx, m.tdVal, cfg.Compress); err != nil {
		return err
	}
	if err := writeBlock(m.bu, m.buIdx, m.buVal, cfg.Compress); err != nil {
		return err
	}
	m.readBuf = make([]byte, nvm.DefaultChunkSize)
	return nil
}

// writeBlock stores one grid block through a stack pair, raw or
// delta+varint compressed (untimed setup clock).
func writeBlock(b *gridBlock, idxSt, valSt nvm.Storage, compressed bool) error {
	setup := vtime.NewClock(0)
	if !compressed {
		if err := semiext.WriteInt64s(idxSt, setup, b.index); err != nil {
			return err
		}
		return semiext.WriteInt64s(valSt, setup, b.value)
	}
	local := len(b.index) - 1
	offs := make([]int64, local+1)
	var blob []byte
	for k := 0; k < local; k++ {
		offs[k] = int64(len(blob))
		blob = enc.AppendList(blob, b.base+int64(k), b.value[b.index[k]:b.index[k+1]])
	}
	offs[local] = int64(len(blob))
	if err := semiext.WriteInt64s(idxSt, setup, offs); err != nil {
		return err
	}
	return semiext.WriteBytes(valSt, setup, blob)
}

// streamTD streams source u's top-down block neighbors on machine m.
func (m *gridMachine) streamTD(u, base int64, t *vtime.Duration, cm *numa.CostModel, fn func(v int64) bool) error {
	if m.tdIdx == nil {
		nbs := m.td.neighbors(u)
		*t += cm.LocalAccess + cm.Stream(len(nbs)*8)
		streamDRAM(nbs, fn)
		return nil
	}
	_, err := semiext.StreamIndexedNeighbors(m.tdIdx, m.tdVal, m.clock, m.compressed,
		u, u-base, &m.readBuf, &m.idsBuf, 0, fn)
	return err
}

// streamBU streams destination v's bottom-up block sources on machine m.
// A dead machine falls back to its DRAM transpose — the degraded
// residence.
func (m *gridMachine) streamBU(v, base int64, t *vtime.Duration, cm *numa.CostModel, fn func(u int64) bool) error {
	if m.buIdx == nil || m.dead {
		nbs := m.bu.neighbors(v)
		*t += cm.LocalAccess + cm.Stream(len(nbs)*8)
		streamDRAM(nbs, fn)
		return nil
	}
	_, err := semiext.StreamIndexedNeighbors(m.buIdx, m.buVal, m.clock, m.compressed,
		v, v-base, &m.readBuf, &m.idsBuf, 0, fn)
	return err
}

func streamDRAM(nbs []int64, fn func(v int64) bool) {
	for _, w := range nbs {
		if !fn(w) {
			return
		}
	}
}

func (m *gridMachine) charge(g *Grid, t vtime.Duration) {
	m.clock.Advance(t / vtime.Duration(g.cfg.CoresPerMachine))
}

// fillBlocks builds either the source-indexed top-down blocks or the
// destination-indexed bottom-up transpose.
func (g *Grid) fillBlocks(src edgelist.Source, transpose bool) error {
	rows, cols := g.rows, g.cols
	target := func(i, j int) *gridBlock {
		if transpose {
			return g.bu[i][j]
		}
		return g.blocks[i][j]
	}
	counts := make([][][]int64, rows)
	for i := range counts {
		counts[i] = make([][]int64, cols)
		for j := range counts[i] {
			var span int64
			if transpose {
				span = g.rowStart[i+1] - g.rowStart[i]
			} else {
				span = g.colStart[j+1] - g.colStart[j]
			}
			counts[i][j] = make([]int64, span+1)
		}
	}
	add := func(u, v int64) {
		i, j := g.rowOf(v), g.colOf(u)
		if transpose {
			counts[i][j][v-g.rowStart[i]+1]++
		} else {
			counts[i][j][u-g.colStart[j]+1]++
		}
	}
	err := src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		add(e.U, e.V)
		add(e.V, e.U)
		return nil
	})
	if err != nil {
		return err
	}
	cursors := make([][][]int64, rows)
	for i := 0; i < rows; i++ {
		cursors[i] = make([][]int64, cols)
		for j := 0; j < cols; j++ {
			idx := counts[i][j]
			for k := 0; k+1 < len(idx); k++ {
				idx[k+1] += idx[k]
			}
			b := target(i, j)
			b.index = idx
			b.value = make([]int64, idx[len(idx)-1])
			cur := make([]int64, len(idx)-1)
			copy(cur, idx[:len(idx)-1])
			cursors[i][j] = cur
		}
	}
	place := func(u, v int64) {
		i, j := g.rowOf(v), g.colOf(u)
		b := target(i, j)
		c := cursors[i][j]
		key := u
		if transpose {
			key = v
		}
		b.value[c[key-b.base]] = pick(transpose, u, v)
		c[key-b.base]++
	}
	err = src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		place(e.U, e.V)
		place(e.V, e.U)
		return nil
	})
	if err != nil {
		return err
	}
	return nil
}

// pick returns the stored endpoint: the destination for top-down blocks,
// the source for the bottom-up transpose.
func pick(transpose bool, u, v int64) int64 {
	if transpose {
		return u
	}
	return v
}

func blockStarts(n int64, parts int) []int64 {
	starts := make([]int64, parts+1)
	base, rem := n/int64(parts), n%int64(parts)
	off := int64(0)
	for k := 0; k < parts; k++ {
		starts[k] = off
		off += base
		if int64(k) < rem {
			off++
		}
	}
	starts[parts] = n
	return starts
}

func (g *Grid) rowOf(v int64) int { return blockOf(v, g.rowStart) }
func (g *Grid) colOf(v int64) int { return blockOf(v, g.colStart) }

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

// Shape returns the grid dimensions.
func (g *Grid) Shape() (rows, cols int) { return g.rows, g.cols }

// NumMachines returns the total processor count.
func (g *Grid) NumMachines() int { return g.rows * g.cols }

// machineAt returns the machine with flat index idx (row-major).
func (g *Grid) machineAt(idx int) *gridMachine {
	return g.machines[idx/g.cols][idx%g.cols]
}

// Close releases every machine's storage stacks (exactly once each).
func (g *Grid) Close() error {
	var first error
	for i := range g.machines {
		for _, m := range g.machines[i] {
			if err := m.stacks.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// MachineStatus is one grid machine's post-run report.
type MachineStatus struct {
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

// MachineReport returns per-machine layer and health status, row-major.
func (g *Grid) MachineReport() []MachineStatus {
	out := make([]MachineStatus, 0, g.rows*g.cols)
	for i := range g.machines {
		for _, m := range g.machines[i] {
			st := MachineStatus{Row: m.i, Col: m.j, Dead: m.dead, Time: m.clock.Now()}
			if m.stacks != nil {
				if len(m.stacks.devs) > 0 {
					st.Device = m.stacks.devs[0].Snapshot()
				}
				st.Health = nvm.CollectReplicaHealth(m.stacks.stores...)
			}
			out = append(out, st)
		}
	}
	return out
}

// ownerOf returns the grid machine owning vertex v's status: the vertex
// lies in row block i; within the row its stripe index selects the
// column.
func (g *Grid) ownerOf(v int64) (int, int) {
	i := g.rowOf(v)
	lo, hi := g.rowStart[i], g.rowStart[i+1]
	span := hi - lo
	if span == 0 {
		return i, 0
	}
	j := int((v - lo) * int64(g.cols) / span)
	if j >= g.cols {
		j = g.cols - 1
	}
	return i, j
}

// stripeRange returns the vertex range of stripe (i, t): the t-th slice
// of row block i.
func (g *Grid) stripeRange(i, t int) (int64, int64) {
	lo, hi := g.rowStart[i], g.rowStart[i+1]
	span := hi - lo
	sLo := lo + span*int64(t)/int64(g.cols)
	sHi := lo + span*int64(t+1)/int64(g.cols)
	return sLo, sHi
}

func (g *Grid) allClocks() []*vtime.Clock {
	out := make([]*vtime.Clock, 0, g.rows*g.cols)
	for i := range g.machines {
		for _, m := range g.machines[i] {
			out = append(out, m.clock)
		}
	}
	return out
}

func (g *Grid) barrier() vtime.Duration {
	clocks := g.allClocks()
	max := vtime.MaxOf(clocks) + g.cfg.Net.Latency
	for _, c := range clocks {
		c.AdvanceTo(max)
	}
	return max
}

// allreduce charges a log2(P) tree.
func (g *Grid) allreduce(bytes int64) {
	p := g.rows * g.cols
	steps := bits.Len(uint(p - 1))
	cost := vtime.Duration(steps) * g.cfg.Net.transfer(bytes)
	for _, c := range g.allClocks() {
		c.Advance(cost)
	}
	g.comm.Control += int64(steps) * bytes * int64(p)
}

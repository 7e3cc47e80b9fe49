package cluster

import (
	"fmt"
	"sort"

	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
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
	core
	rows int
	// deg holds every vertex's undirected degree — the bottom-up
	// scan-order key (hubs first), shared by all blocks so the claim
	// comparator is global.
	deg []int64

	// rowStart[i] / colStart[j] delimit the vertex blocks. Machine (i,j)'s
	// td block is a CSR over column block j's sources, restricted to
	// destinations in row block i, neighbor lists ascending (dropped from
	// DRAM once offloaded); its bu block is the transpose — a CSR over row
	// block i's destinations listing their sources in column block j,
	// neighbor lists sorted hubs-first (always kept in DRAM too: it is the
	// degraded-mode residence).
	rowStart []int64
	colStart []int64

	// core.frontier is the authoritative current-frontier bitmap; fview
	// is the wire-decoded replica the scans actually read, and
	// core.queues the wire-decoded per-column top-down queues — the codec
	// is in the data path, not just the accounting.
	fview *bitmap.Bitmap

	// cand is the bottom-up rotating claim state (best parent candidate
	// per vertex, -1 when none); touched[i] lists row block i's vertices
	// with live candidates so failed level attempts can roll back.
	cand    []int64
	touched [][]int64
}

// at returns machine (i,j).
func (g *Grid) at(i, j int) *machine { return g.machines[i*g.cols+j] }

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
		rows:     rows,
		deg:      deg,
		rowStart: blockStarts(n, rows),
		colStart: blockStarts(n, cols),
		fview:    bitmap.New(int(n)),
		cand:     make([]int64, n),
		touched:  make([][]int64, rows),
	}
	// Vertex status is striped: machine (i,j) owns the slice of row block
	// i whose offsets x satisfy x*cols/span == j.
	ownStart := make([]int64, 0, rows*cols+1)
	for i := 0; i < rows; i++ {
		lo, span := g.rowStart[i], g.rowStart[i+1]-g.rowStart[i]
		for j := 0; j < cols; j++ {
			ownStart = append(ownStart, lo+(int64(j)*span+int64(cols)-1)/int64(cols))
		}
	}
	g.init(cfg, n, cols, append(ownStart, n), g)
	g.rollback = g.resetLevelScratch
	for i := range g.cand {
		g.cand[i] = -1
	}
	// The top-down blocks index by source u; the bottom-up transpose
	// indexes by destination v. Each is filled in one count pass and one
	// placement pass over the edge list.
	if err := g.fillBlocks(src, false); err != nil {
		return nil, err
	}
	if err := g.fillBlocks(src, true); err != nil {
		return nil, err
	}
	g.sortBlocks()
	if cfg.ForwardOnNVM {
		for k, m := range g.machines {
			name := fmt.Sprintf("g%dx%d", k/cols, k%cols)
			err := g.offload(m, &m.td, name+"-td")
			if err == nil {
				err = g.offload(m, &m.bu, name+"-bu")
			}
			if err != nil {
				g.Close()
				return nil, err
			}
			// Semi-external placement: the top-down block now lives only
			// on the machine's stack.
			m.td.Index, m.td.Value = nil, nil
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
	for _, m := range g.machines {
		sortBlockLists(&m.td, func(a, b int64) bool { return a < b })
		sortBlockLists(&m.bu, g.better)
	}
}

func sortBlockLists(b *block, less func(a, b int64) bool) {
	for k := 0; k+1 < len(b.Index); k++ {
		seg := b.Value[b.Index[k]:b.Index[k+1]]
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

// fillBlocks builds either the source-indexed top-down blocks or the
// destination-indexed bottom-up transpose.
func (g *Grid) fillBlocks(src edgelist.Source, transpose bool) error {
	rows, cols := g.rows, g.cols
	target := func(i, j int) *block {
		if transpose {
			return &g.at(i, j).bu
		}
		return &g.at(i, j).td
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
			b.Base, b.Len = g.colStart[j], int64(len(idx)-1)
			if transpose {
				b.Base = g.rowStart[i]
			}
			b.Index = idx
			b.Value = make([]int64, idx[len(idx)-1])
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
		b.Value[c[key-b.Base]] = pick(transpose, u, v)
		c[key-b.Base]++
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

// Shape returns the grid dimensions.
func (g *Grid) Shape() (rows, cols int) { return g.rows, g.cols }

// stripeRange returns the vertex range of stripe (i, t): the t-th slice
// of row block i.
func (g *Grid) stripeRange(i, t int) (int64, int64) {
	lo, hi := g.rowStart[i], g.rowStart[i+1]
	span := hi - lo
	sLo := lo + span*int64(t)/int64(g.cols)
	sHi := lo + span*int64(t+1)/int64(g.cols)
	return sLo, sHi
}

package cluster

import (
	"fmt"

	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
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
	// neighbor lists hubs-first (always kept in DRAM too: it is the
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
	rowPart := numa.NewPartition(numa.Topology{Nodes: rows, CoresPerNode: 1}, int(n))
	colPart := numa.NewPartition(numa.Topology{Nodes: cols, CoresPerNode: 1}, int(n))
	// Machine (i,j)'s blocks are block (i,j) of csr's 2D construction: td
	// lists ascending, bu lists in the single-node engine's hubs-first
	// order, which is better's. Each neighbour lives in exactly one column
	// block, so merging per-block minima under that one global order
	// reproduces the single-node scan order — the heart of the
	// cross-topology bit-identity contract.
	td, bu, deg, err := csr.BuildBlocks(src, rowPart, colPart, csr.SortByDegreeDesc)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		rows:     rows,
		deg:      deg,
		rowStart: startsOf(rowPart),
		colStart: startsOf(colPart),
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
	for k, m := range g.machines {
		m.td.LocalGraph, m.bu.LocalGraph = *td[k], *bu[k]
	}
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

// better reports whether u precedes c in the bottom-up scan order.
func (g *Grid) better(u, c int64) bool {
	if g.deg[u] != g.deg[c] {
		return g.deg[u] > g.deg[c]
	}
	return u < c
}

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

// Package csr implements the Compressed Sparse Row graph representations
// of NETAL, the paper's base system (Section IV-A and Figure 5).
//
// Two distinct layouts exist because the two BFS directions want opposite
// locality:
//
//   - ForwardGraph (top-down): the vertex set is partitioned by
//     *destination* across NUMA nodes. Node k's replica holds, for every
//     source vertex, only the neighbors that live on node k, so a worker
//     on node k writing tree/visited state only ever writes locally. The
//     index array is therefore duplicated once per node — this is why the
//     paper's forward graph (40.1 GB at SCALE 27) is larger than the
//     backward graph (33.1 GB).
//
//   - BackwardGraph (bottom-up): the vertex set is partitioned by *source*
//     (the unvisited vertex doing the searching). Node k holds a local CSR
//     over its own vertex range with the full neighbor lists, optionally
//     sorted so high-degree neighbors come first (a vertex is far more
//     likely to find its parent among hubs, shortening the bottom-up scan).
//
// BuildBlocks cuts the same adjacency into the blocks of a 2D processor
// grid (the cluster's layout); Build is its one-column case.
package csr

import (
	"fmt"

	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
)

// SortMode controls adjacency ordering within each vertex's neighbor list.
type SortMode int

const (
	// SortByDegreeDesc orders neighbors by descending degree (hubs
	// first), the NETAL ordering that accelerates bottom-up search. It is
	// the zero value: the paper's order, and every default.
	SortByDegreeDesc SortMode = iota
	// SortNone keeps edge-list arrival order.
	SortNone
	// SortByID orders neighbors by ascending vertex ID.
	SortByID
)

func (m SortMode) String() string {
	switch m {
	case SortNone:
		return "none"
	case SortByID:
		return "id"
	case SortByDegreeDesc:
		return "degree-desc"
	default:
		return fmt.Sprintf("SortMode(%d)", int(m))
	}
}

// Graph is a plain CSR over sources [0, NumVertices): the value slice
// Value[Index[v]:Index[v+1]] holds vertex v's neighbors.
type Graph struct {
	NumVertices int64
	Index       []int64
	Value       []int64
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int64) int64 { return g.Index[v+1] - g.Index[v] }

// Neighbors returns v's neighbor slice (aliasing the graph's storage).
func (g *Graph) Neighbors(v int64) []int64 {
	return g.Value[g.Index[v]:g.Index[v+1]]
}

// NumEdgesStored returns the total number of stored directed edges.
func (g *Graph) NumEdgesStored() int64 { return int64(len(g.Value)) }

// Bytes returns the DRAM footprint of the CSR arrays.
func (g *Graph) Bytes() int64 {
	return int64(len(g.Index))*8 + int64(len(g.Value))*8
}

// LocalGraph is a CSR over the vertex range [Base, Base+Len): node-local
// storage for the backward graph. Index has Len+1 entries.
type LocalGraph struct {
	Base  int64
	Len   int64
	Index []int64
	Value []int64
}

// Degree returns the degree of global vertex v, which must be in range.
func (g *LocalGraph) Degree(v int64) int64 {
	i := v - g.Base
	return g.Index[i+1] - g.Index[i]
}

// Neighbors returns global vertex v's neighbor slice.
func (g *LocalGraph) Neighbors(v int64) []int64 {
	i := v - g.Base
	return g.Value[g.Index[i]:g.Index[i+1]]
}

// Bytes returns the DRAM footprint of the CSR arrays.
func (g *LocalGraph) Bytes() int64 {
	return int64(len(g.Index))*8 + int64(len(g.Value))*8
}

// ForwardGraph is the destination-partitioned top-down graph: PerNode[k]
// is a full-index CSR whose neighbor lists contain only vertices owned by
// NUMA node k.
type ForwardGraph struct {
	Part    *numa.Partition
	PerNode []*Graph
}

// Bytes returns the total DRAM footprint across all node replicas.
func (f *ForwardGraph) Bytes() int64 {
	var b int64
	for _, g := range f.PerNode {
		b += g.Bytes()
	}
	return b
}

// NumEdgesStored returns the total directed edges stored (2M minus
// self-loops, summed across replicas).
func (f *ForwardGraph) NumEdgesStored() int64 {
	var m int64
	for _, g := range f.PerNode {
		m += g.NumEdgesStored()
	}
	return m
}

// Degree returns the total out-degree of v across all node replicas.
func (f *ForwardGraph) Degree(v int64) int64 {
	var d int64
	for _, g := range f.PerNode {
		d += g.Degree(v)
	}
	return d
}

// BackwardGraph is the source-partitioned bottom-up graph: PerNode[k] is a
// local CSR over node k's vertex range with full neighbor lists.
type BackwardGraph struct {
	Part    *numa.Partition
	PerNode []*LocalGraph
}

// Bytes returns the total DRAM footprint across nodes.
func (b *BackwardGraph) Bytes() int64 {
	var n int64
	for _, g := range b.PerNode {
		n += g.Bytes()
	}
	return n
}

// NumEdgesStored returns the total directed edges stored.
func (b *BackwardGraph) NumEdgesStored() int64 {
	var m int64
	for _, g := range b.PerNode {
		m += int64(len(g.Value))
	}
	return m
}

// Degree returns the degree of vertex v.
func (b *BackwardGraph) Degree(v int64) int64 {
	return b.PerNode[b.Part.NodeOf(int(v))].Degree(v)
}

// Neighbors returns vertex v's neighbors from its owner node's CSR.
func (b *BackwardGraph) Neighbors(v int64) []int64 {
	return b.PerNode[b.Part.NodeOf(int(v))].Neighbors(v)
}

// BuildSimple constructs a plain, non-partitioned CSR over src — the
// layout the Graph500 reference implementation uses: the arrival-order
// backward graph over one node. Self-loops are dropped; duplicates kept.
func BuildSimple(src edgelist.Source) (*Graph, error) {
	n := src.NumVertices()
	one := whole(n)
	bu, _, err := buildArrival(src, one, one, SortNone)
	if err != nil {
		return nil, err
	}
	return &Graph{NumVertices: n, Index: bu[0].Index, Value: bu[0].Value}, nil
}

// Degrees counts the undirected degree of every vertex in src (self-loops
// dropped, both endpoints counted per edge).
func Degrees(src edgelist.Source) ([]int64, error) {
	n := src.NumVertices()
	deg := make([]int64, n)
	err := src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		deg[e.U]++
		deg[e.V]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return deg, nil
}

// whole is the one-block partition of [0, n).
func whole(n int64) *numa.Partition {
	return numa.NewPartition(numa.Topology{Nodes: 1, CoresPerNode: 1}, int(n))
}

// Build constructs the forward and the backward graph of src with two
// passes over the edge list, no comparison sort and no scratch beyond the
// two results and O(n + maximum degree) words. Self-loops are dropped;
// duplicate edges are kept (as in the Graph500 reference construction).
//
// Backward node k is block (k, 0) of BuildBlocks over part and one column,
// and forward node k its transpose over all n vertices.
func Build(src edgelist.Source, part *numa.Partition, mode SortMode) (*ForwardGraph, *BackwardGraph, error) {
	td, bu, _, err := BuildBlocks(src, part, whole(int64(part.N)), mode)
	if err != nil {
		return nil, nil, err
	}
	fg := &ForwardGraph{Part: part, PerNode: make([]*Graph, len(td))}
	for k, t := range td {
		fg.PerNode[k] = &Graph{NumVertices: t.Len, Index: t.Index, Value: t.Value}
	}
	return fg, &BackwardGraph{Part: part, PerNode: bu}, nil
}

// BuildBlocks cuts the adjacency of src into the blocks of a rows x cols
// grid (the 2D decomposition), row-major. Block (i, j) of bu is a CSR over
// row block i listing every vertex's neighbours in column block j, in
// mode's order; block (i, j) of td is its transpose, a CSR over column
// block j listing every vertex's neighbours in row block i, ascending. deg
// holds every vertex's degree. Self-loops are dropped; duplicate edges are
// kept.
//
// One column takes two passes over the edge list, more columns three (the
// block sizes need a count pass). The passes place every bu list in
// arrival order. The graph is symmetric, so td block (i, j) is the
// transpose of bu block (i, j), and a transpose visits its rows in vertex
// order: every td list comes out ascending. For SortByID and
// SortByDegreeDesc each bu block's lists are then re-placed from its td
// block in the mode's vertex order. No comparison sort is involved.
func BuildBlocks(src edgelist.Source, rows, cols *numa.Partition, mode SortMode) (td, bu []*LocalGraph, deg []int64, err error) {
	bu, deg, err = buildArrival(src, rows, cols, mode)
	if err != nil {
		return nil, nil, nil, err
	}
	td = make([]*LocalGraph, len(bu))
	c := cols.Topology.Nodes
	for j := 0; j < c; j++ {
		lo, hi := cols.Range(j)
		order := degreeOrder(deg[lo:hi], mode)
		for k := j; k < len(bu); k += c {
			td[k] = newLocal(int64(lo), int64(hi), len(bu[k].Value))
			bu[k].transpose(td[k])
			if mode != SortNone {
				bu[k].relist(td[k], order)
			}
		}
	}
	return td, bu, deg, nil
}

// BuildForward constructs the destination-partitioned forward graph from
// src, with every neighbor list ascending: top-down claims are
// order-independent (min-parent CAS), and sorted lists are what makes the
// delta+varint NVM encoding tight. The arrival-order backward graph is its
// only scratch.
func BuildForward(src edgelist.Source, part *numa.Partition) (*ForwardGraph, error) {
	fg, _, err := Build(src, part, SortNone)
	return fg, err
}

// BuildBackward constructs the source-partitioned backward graph from src.
// mode selects neighbor ordering; SortByDegreeDesc is the NETAL default.
// A node's lists are re-placed from its forward node, so one node-sized
// forward graph is reused as scratch across nodes.
func BuildBackward(src edgelist.Source, part *numa.Partition, mode SortMode) (*BackwardGraph, error) {
	n := int64(part.N)
	one := whole(n)
	bu, deg, err := buildArrival(src, part, one, mode)
	if err != nil {
		return nil, err
	}
	bg := &BackwardGraph{Part: part, PerNode: bu}
	if mode == SortNone {
		return bg, nil
	}
	var most int
	for _, g := range bu {
		most = max(most, len(g.Value))
	}
	fwd := newLocal(0, n, most)
	order := degreeOrder(deg, mode)
	for _, g := range bu {
		g.transpose(fwd)
		g.relist(fwd, order)
	}
	return bg, nil
}

// newLocal is a CSR over [lo, hi) with room for values neighbours.
func newLocal(lo, hi int64, values int) *LocalGraph {
	return &LocalGraph{Base: lo, Len: hi - lo, Index: make([]int64, hi-lo+1), Value: make([]int64, values)}
}

// buildArrival is the bu blocks of BuildBlocks with every list in
// edge-list arrival order, and the degrees: one Degrees pass, a count pass
// when there is more than one column, and one placement pass. It checks
// the partitions and mode for every builder.
func buildArrival(src edgelist.Source, rows, cols *numa.Partition, mode SortMode) ([]*LocalGraph, []int64, error) {
	n := src.NumVertices()
	if int64(rows.N) != n || int64(cols.N) != n {
		return nil, nil, fmt.Errorf("csr: partitions over %d and %d vertices, source has %d", rows.N, cols.N, n)
	}
	if mode != SortByDegreeDesc && mode != SortNone && mode != SortByID {
		return nil, nil, fmt.Errorf("csr: unknown sort mode %d", mode)
	}
	deg, err := Degrees(src)
	if err != nil {
		return nil, nil, err
	}
	c := cols.Topology.Nodes
	blocks := make([]*LocalGraph, rows.Topology.Nodes*c)
	for k := range blocks {
		lo, hi := rows.Range(k / c)
		blocks[k] = &LocalGraph{Base: int64(lo), Len: int64(hi - lo), Index: make([]int64, hi-lo+1)}
		if c == 1 {
			copy(blocks[k].Index[1:], deg[lo:hi])
		}
	}
	if c > 1 {
		err = src.ForEach(func(e edgelist.Edge) error {
			if e.U == e.V {
				return nil
			}
			blocks[rows.NodeOf(int(e.U))*c+cols.NodeOf(int(e.V))].count(e.U)
			blocks[rows.NodeOf(int(e.V))*c+cols.NodeOf(int(e.U))].count(e.V)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for _, b := range blocks {
		var sum int64
		for i, d := range b.Index[1:] {
			b.Index[i+1] = sum // i's start: its cursor until placement moves it to i's end
			sum += d
		}
		b.Value = make([]int64, sum)
	}
	err = src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		ju, jv := 0, 0 // the column blocks of e.U and e.V
		if c > 1 {
			ju, jv = cols.NodeOf(int(e.U)), cols.NodeOf(int(e.V))
		}
		blocks[rows.NodeOf(int(e.U))*c+jv].place(e.U, e.V)
		blocks[rows.NodeOf(int(e.V))*c+ju].place(e.V, e.U)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return blocks, deg, nil
}

// count adds one to w's degree, kept at Index[w-Base+1] until the starts
// replace the degrees.
func (g *LocalGraph) count(w int64) { g.Index[w-g.Base+1]++ }

// place appends v to w's list at w's cursor, Index[w-Base+1], which ends
// at w's end once all of w's neighbours are placed.
func (g *LocalGraph) place(w, v int64) {
	c := &g.Index[w-g.Base+1]
	g.Value[*c] = v
	*c++
}

// transpose overwrites t, whose Value has room for g's, with g's
// transpose over t's vertex range: for every vertex u there, u's
// neighbours in g's range. g is read in vertex order, so each list fills
// ascending.
func (g *LocalGraph) transpose(t *LocalGraph) {
	// cursor[u-t.Base] is u's count, then its start, then its end.
	cursor := t.Index[1:]
	clear(t.Index)
	for _, u := range g.Value {
		cursor[u-t.Base]++
	}
	var sum int64
	for i, d := range cursor {
		cursor[i] = sum
		sum += d
	}
	value := t.Value[:sum]
	for i := int64(0); i < g.Len; i++ {
		v := g.Base + i
		for _, u := range g.Value[g.Index[i]:g.Index[i+1]] {
			value[cursor[u-t.Base]] = v
			cursor[u-t.Base]++
		}
	}
	t.Value = value
}

// degreeOrder is every vertex of deg's range as an offset into it, hubs
// first and ties by ascending ID, for SortByDegreeDesc (a vertex is far
// more likely to find its parent among hubs), and nil (ascending IDs) for
// the other modes: a counting sort on degree.
func degreeOrder(deg []int64, mode SortMode) []int64 {
	if mode != SortByDegreeDesc {
		return nil
	}
	var maxDeg int64
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	// start[d] counts the vertices of degree d, then becomes the first
	// position of degree d: after every higher degree.
	start := make([]int64, maxDeg+1)
	for _, d := range deg {
		start[d]++
	}
	var sum int64
	for d := maxDeg; d >= 0; d-- {
		start[d], sum = sum, sum+start[d]
	}
	order := make([]int64, len(deg))
	for v, d := range deg {
		order[start[d]] = int64(v)
		start[d]++
	}
	return order
}

// relist re-places g's lists from t, its transpose, in the vertex order
// of t's range (order, as offsets, or ascending IDs when order is nil):
// u's list receives v for every u among v's neighbours in t, as v comes
// up.
func (g *LocalGraph) relist(t *LocalGraph, order []int64) {
	copy(g.Index[1:], g.Index[:g.Len]) // every cursor back at its list's start
	for i := int64(0); i < t.Len; i++ {
		v := t.Base + i
		if order != nil {
			v = t.Base + order[i]
		}
		for _, u := range t.Neighbors(v) {
			g.place(u, v)
		}
	}
}

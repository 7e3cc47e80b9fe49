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
	bg, _, err := buildArrival(src, numa.NewPartition(numa.Topology{Nodes: 1, CoresPerNode: 1}, int(n)), SortNone)
	if err != nil {
		return nil, err
	}
	g := bg.PerNode[0]
	return &Graph{NumVertices: n, Index: g.Index, Value: g.Value}, nil
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

// Build constructs the forward and the backward graph of src with two
// passes over the edge list, no comparison sort and no scratch beyond the
// two results and O(n + maximum degree) words. Self-loops are dropped;
// duplicate edges are kept (as in the Graph500 reference construction).
//
// The passes place every backward list in arrival order. The graph is
// symmetric, so forward node k is the transpose of backward node k, and a
// transpose visits its rows in vertex order: every forward list comes out
// ascending. For SortByID and SortByDegreeDesc each backward node's lists
// are then re-placed from its forward node in the mode's vertex order.
func Build(src edgelist.Source, part *numa.Partition, mode SortMode) (*ForwardGraph, *BackwardGraph, error) {
	bg, deg, err := buildArrival(src, part, mode)
	if err != nil {
		return nil, nil, err
	}
	fg := &ForwardGraph{Part: part, PerNode: make([]*Graph, len(bg.PerNode))}
	order := degreeOrder(deg, mode)
	for k, g := range bg.PerNode {
		fg.PerNode[k] = newGraph(int64(part.N), len(g.Value))
		g.transpose(fg.PerNode[k])
		if mode != SortNone {
			g.relist(fg.PerNode[k], order)
		}
	}
	return fg, bg, nil
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
	bg, deg, err := buildArrival(src, part, mode)
	if err != nil || mode == SortNone {
		return bg, err
	}
	var most int
	for _, g := range bg.PerNode {
		most = max(most, len(g.Value))
	}
	fwd := newGraph(int64(part.N), most)
	order := degreeOrder(deg, mode)
	for _, g := range bg.PerNode {
		g.transpose(fwd)
		g.relist(fwd, order)
	}
	return bg, nil
}

func newGraph(n int64, values int) *Graph {
	return &Graph{NumVertices: n, Index: make([]int64, n+1), Value: make([]int64, values)}
}

// buildArrival is the backward graph with every list in edge-list arrival
// order, and the degrees: one Degrees pass, one placement pass. It checks
// part and mode for every builder.
func buildArrival(src edgelist.Source, part *numa.Partition, mode SortMode) (*BackwardGraph, []int64, error) {
	n := src.NumVertices()
	if int64(part.N) != n {
		return nil, nil, fmt.Errorf("csr: partition over %d vertices, source has %d", part.N, n)
	}
	if mode != SortByDegreeDesc && mode != SortNone && mode != SortByID {
		return nil, nil, fmt.Errorf("csr: unknown sort mode %d", mode)
	}
	deg, err := Degrees(src)
	if err != nil {
		return nil, nil, err
	}
	bg := &BackwardGraph{Part: part, PerNode: make([]*LocalGraph, part.Topology.Nodes)}
	for k := range bg.PerNode {
		lo, hi := part.Range(k)
		index := make([]int64, hi-lo+1)
		var sum int64
		for i, d := range deg[lo:hi] {
			index[i+1] = sum // i's start: its cursor until placement moves it to i's end
			sum += d
		}
		bg.PerNode[k] = &LocalGraph{Base: int64(lo), Len: int64(hi - lo), Index: index, Value: make([]int64, sum)}
	}
	err = src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		bg.PerNode[part.NodeOf(int(e.U))].place(e.U, e.V)
		bg.PerNode[part.NodeOf(int(e.V))].place(e.V, e.U)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return bg, deg, nil
}

// place appends v to w's list at w's cursor, Index[w-Base+1], which ends
// at w's end once all of w's neighbours are placed.
func (g *LocalGraph) place(w, v int64) {
	c := &g.Index[w-g.Base+1]
	g.Value[*c] = v
	*c++
}

// transpose overwrites fwd, whose Value has room for g's, with forward
// node k for g = backward node k: for every vertex u, u's neighbours in g's
// range. g is read in vertex order, so each list fills ascending.
func (g *LocalGraph) transpose(fwd *Graph) {
	index := fwd.Index
	clear(index)
	for _, u := range g.Value {
		index[u+1]++
	}
	var sum int64
	for u, c := range index[1:] {
		index[u+1] = sum // u's start: its cursor until placement moves it to u's end
		sum += c
	}
	fwd.Value = fwd.Value[:sum]
	for i := int64(0); i < g.Len; i++ {
		v := g.Base + i
		for _, u := range g.Value[g.Index[i]:g.Index[i+1]] {
			fwd.Value[index[u+1]] = v
			index[u+1]++
		}
	}
}

// degreeOrder is every vertex, hubs first and ties by ascending ID, for
// SortByDegreeDesc (a vertex is far more likely to find its parent among
// hubs), and nil (ascending IDs) for the other modes: a counting sort on
// degree.
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

// relist re-places g's lists from fwd, its forward node, in vertex order
// (order, or ascending IDs when order is nil): u's list receives v for
// every u among v's neighbours in fwd, as v comes up.
func (g *LocalGraph) relist(fwd *Graph, order []int64) {
	copy(g.Index[1:], g.Index[:g.Len]) // every cursor back at its list's start
	for i := int64(0); i < fwd.NumVertices; i++ {
		v := i
		if order != nil {
			v = order[i]
		}
		for _, u := range fwd.Neighbors(v) {
			g.place(u, v)
		}
	}
}

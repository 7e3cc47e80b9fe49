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
	"math/bits"
	"slices"

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
// layout the Graph500 reference implementation uses. Self-loops are
// dropped; duplicates kept.
func BuildSimple(src edgelist.Source) (*Graph, error) {
	n := src.NumVertices()
	index := make([]int64, n+1)
	err := src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		index[e.U+1]++
		index[e.V+1]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < n; i++ {
		index[i+1] += index[i]
	}
	g := &Graph{NumVertices: n, Index: index, Value: make([]int64, index[n])}
	cursor := make([]int64, n)
	copy(cursor, index[:n])
	err = src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		g.Value[cursor[e.U]] = e.V
		cursor[e.U]++
		g.Value[cursor[e.V]] = e.U
		cursor[e.V]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
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

// BuildForward constructs the destination-partitioned forward graph from
// src. Self-loops are dropped; duplicate edges are kept (as in the
// Graph500 reference construction).
func BuildForward(src edgelist.Source, part *numa.Partition) (*ForwardGraph, error) {
	n := src.NumVertices()
	if int64(part.N) != n {
		return nil, fmt.Errorf("csr: partition over %d vertices, source has %d", part.N, n)
	}
	nodes := part.Topology.Nodes
	// Pass 1: per-node out-degree of every source vertex.
	counts := make([][]int64, nodes)
	for k := range counts {
		counts[k] = make([]int64, n+1)
	}
	add := func(u, v int64) {
		k := part.NodeOf(int(v))
		counts[k][u+1]++
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
		return nil, err
	}
	fg := &ForwardGraph{Part: part, PerNode: make([]*Graph, nodes)}
	cursors := make([][]int64, nodes)
	for k := 0; k < nodes; k++ {
		index := counts[k]
		for i := int64(0); i < n; i++ {
			index[i+1] += index[i]
		}
		fg.PerNode[k] = &Graph{
			NumVertices: n,
			Index:       index,
			Value:       make([]int64, index[n]),
		}
		cur := make([]int64, n)
		copy(cur, index[:n])
		cursors[k] = cur
	}
	// Pass 2: placement.
	place := func(u, v int64) {
		k := part.NodeOf(int(v))
		g := fg.PerNode[k]
		g.Value[cursors[k][u]] = v
		cursors[k][u]++
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
		return nil, err
	}
	// Sort every neighbor list ascending. Top-down claims are
	// order-independent (min-parent CAS), and sorted lists are what makes
	// the delta+varint NVM encoding tight: consecutive IDs become 1-2 byte
	// deltas instead of 8-byte words.
	for _, g := range fg.PerNode {
		for i := int64(0); i < n; i++ {
			slices.Sort(g.Value[g.Index[i]:g.Index[i+1]])
		}
	}
	return fg, nil
}

// BuildBackward constructs the source-partitioned backward graph from src.
// mode selects neighbor ordering; SortByDegreeDesc requires a second pass
// over the degree array and is the NETAL default. It is an error if a
// vertex ID and a degree do not fit one 63-bit sort key together.
func BuildBackward(src edgelist.Source, part *numa.Partition, mode SortMode) (*BackwardGraph, error) {
	n := src.NumVertices()
	if int64(part.N) != n {
		return nil, fmt.Errorf("csr: partition over %d vertices, source has %d", part.N, n)
	}
	deg, err := Degrees(src)
	if err != nil {
		return nil, err
	}
	nodes := part.Topology.Nodes
	bg := &BackwardGraph{Part: part, PerNode: make([]*LocalGraph, nodes)}
	offsets := make([]int64, n) // global cursor into each vertex's slot
	for k := 0; k < nodes; k++ {
		lo, hi := part.Range(k)
		ln := int64(hi - lo)
		index := make([]int64, ln+1)
		for i := int64(0); i < ln; i++ {
			index[i+1] = index[i] + deg[int64(lo)+i]
		}
		bg.PerNode[k] = &LocalGraph{
			Base:  int64(lo),
			Len:   ln,
			Index: index,
			Value: make([]int64, index[ln]),
		}
	}
	place := func(w, v int64) {
		k := part.NodeOf(int(w))
		g := bg.PerNode[k]
		g.Value[g.Index[w-g.Base]+offsets[w]] = v
		offsets[w]++
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
		return nil, err
	}
	switch mode {
	case SortNone:
	case SortByID:
		for _, g := range bg.PerNode {
			for i := int64(0); i < g.Len; i++ {
				slices.Sort(g.Value[g.Index[i]:g.Index[i+1]])
			}
		}
	case SortByDegreeDesc:
		// Hubs first, ties by ascending ID: (maxDeg - degree) is packed
		// above the ID bits of every neighbour, so the order is a plain
		// integer sort with no degree lookups inside the comparisons.
		var maxDeg int64
		for _, d := range deg {
			maxDeg = max(maxDeg, d)
		}
		idBits := bits.Len64(uint64(n))
		if idBits+bits.Len64(uint64(maxDeg)) > 63 {
			return nil, fmt.Errorf("csr: %d vertices with maximum degree %d overflow the degree-sort key", n, maxDeg)
		}
		idMask := int64(1)<<idBits - 1
		for _, g := range bg.PerNode {
			for i, v := range g.Value {
				g.Value[i] = (maxDeg-deg[v])<<idBits | v
			}
			for i := int64(0); i < g.Len; i++ {
				slices.Sort(g.Value[g.Index[i]:g.Index[i+1]])
			}
			for i, key := range g.Value {
				g.Value[i] = key & idMask
			}
		}
	default:
		return nil, fmt.Errorf("csr: unknown sort mode %d", mode)
	}
	return bg, nil
}

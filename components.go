package semibfs

import (
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/graph500"
	"semibfs/internal/numa"
	"semibfs/internal/vp"
)

// ComponentStats summarizes the connected components of an edge list.
type ComponentStats struct {
	// Components is the number of connected components, counting each
	// isolated vertex as its own component.
	Components int64
	// LargestSize is the vertex count of the largest component.
	LargestSize int64
	// LargestRoot is the smallest vertex ID inside the largest
	// component — a ready-made BFS source.
	LargestRoot int64
	// Isolated is the number of degree-zero vertices.
	Isolated int64
	// Sizes holds the component sizes in descending order, capped at
	// the 32 largest.
	Sizes []int64
}

// Components analyzes the edge list's connectivity. A Kronecker instance
// has one giant component plus isolated vertices; custom graphs may not,
// and Graph500-style TEPS figures only make sense for roots inside a
// substantial component — use LargestRoot.
//
// The labels come from the vertex-program framework's min-label
// propagation (vp.Components) over a DRAM-built system — the same engine
// that runs components through the NVM storage stack — with the
// union-find pass kept as the test oracle and the fallback when the
// framework cannot build the graph.
func (e *EdgeList) Components() ComponentStats {
	labels, err := propagateLabels(e.list)
	if err != nil {
		return e.componentsUnionFind()
	}
	return statsFromLabels(labels)
}

// propagateLabels runs vp.Components over a DRAM placement of the list
// and returns each vertex's component min-ID label.
func propagateLabels(list *edgelist.List) ([]int64, error) {
	sys, err := core.Build(edgelist.ListSource{List: list},
		numa.Topology{Nodes: 2, CoresPerNode: 2}, core.ScenarioDRAMOnly, core.BuildOptions{})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var labels []int64
	err = graph500.RunProgram(sys, vp.AlgoComponents, vp.Config{Config: bfs.Config{Topology: sys.Part.Topology}},
		vp.PageRankOptions{}, []int64{0}, func(_ int64, prog vp.Program, _ *vp.Result) error {
			labels = prog.(*vp.Components).Labels()
			return nil
		})
	return labels, err
}

// statsFromLabels derives ComponentStats from component labels. A label
// is its component's minimum vertex ID, so size-1 labels are exactly the
// vertices without an edge to another vertex (isolated in the union-find
// sense, self-loops included), and scanning labels in ascending order
// reproduces the union-find tie-break: the largest component with the
// smallest minimum ID wins LargestRoot.
func statsFromLabels(labels []int64) ComponentStats {
	counts := make([]int64, len(labels))
	for _, l := range labels {
		counts[l]++
	}
	stats := ComponentStats{LargestRoot: -1}
	var sizes []int64
	for l, c := range counts {
		if c == 0 {
			continue
		}
		stats.Components++
		if c == 1 {
			stats.Isolated++
			continue
		}
		sizes = append(sizes, c)
		if c > stats.LargestSize {
			stats.LargestSize = c
			stats.LargestRoot = int64(l)
		}
	}
	if stats.LargestRoot == -1 && len(labels) > 0 {
		// Edgeless graph: every vertex is its own (isolated) component.
		stats.LargestSize = 1
		stats.LargestRoot = 0
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	if len(sizes) > 32 {
		sizes = sizes[:32]
	}
	stats.Sizes = sizes
	return stats
}

// componentsUnionFind is the union-find analysis the label-propagation
// path replaced; it remains the test oracle and the fallback.
func (e *EdgeList) componentsUnionFind() ComponentStats {
	n := e.list.NumVertices
	parent := make([]int64, n)
	size := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
		size[i] = 1
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int64) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	touched := make([]bool, n)
	for _, edge := range e.list.Edges {
		if edge.U == edge.V {
			continue
		}
		touched[edge.U] = true
		touched[edge.V] = true
		union(edge.U, edge.V)
	}

	stats := ComponentStats{LargestRoot: -1}
	var sizes []int64
	rootSeen := make(map[int64]bool)
	for v := int64(0); v < n; v++ {
		if !touched[v] {
			stats.Isolated++
			stats.Components++
			continue
		}
		r := find(v)
		if rootSeen[r] {
			continue
		}
		rootSeen[r] = true
		stats.Components++
		sizes = append(sizes, size[r])
		if size[r] > stats.LargestSize {
			stats.LargestSize = size[r]
			// v is the smallest ID seen for this root because the
			// scan is in ascending vertex order.
			stats.LargestRoot = v
		}
	}
	if stats.LargestRoot == -1 && n > 0 {
		// Edgeless graph: every vertex is its own (isolated)
		// component.
		stats.LargestSize = 1
		stats.LargestRoot = 0
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	if len(sizes) > 32 {
		sizes = sizes[:32]
	}
	stats.Sizes = sizes
	return stats
}

package csr

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
)

// tinyGraph is a hand-checkable 6-vertex graph:
//
//	0-1, 0-2, 1-2, 2-3, 3-4, 4-4 (self-loop, dropped), 0-1 (duplicate, kept)
//
// Vertex 5 is isolated.
func tinyGraph() edgelist.Source {
	return edgelist.ListSource{List: &edgelist.List{
		NumVertices: 6,
		Edges: []edgelist.Edge{
			{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 4}, {U: 0, V: 1},
		},
	}}
}

// tinyDegrees is the expected undirected degree (self-loop dropped,
// duplicate kept twice).
var tinyDegrees = []int64{3, 3, 3, 2, 1, 0}

func twoNodes() *numa.Partition {
	return numa.NewPartition(numa.Topology{Nodes: 2, CoresPerNode: 1}, 6)
}

func TestDegrees(t *testing.T) {
	deg, err := Degrees(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range tinyDegrees {
		if deg[v] != want {
			t.Fatalf("deg(%d) = %d, want %d", v, deg[v], want)
		}
	}
}

func sortedCopy(s []int64) []int64 {
	c := append([]int64(nil), s...)
	sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
	return c
}

func TestBuildSimple(t *testing.T) {
	g, err := BuildSimple(tinyGraph())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 6 {
		t.Fatalf("NumVertices = %d", g.NumVertices)
	}
	for v, want := range tinyDegrees {
		if g.Degree(int64(v)) != want {
			t.Fatalf("deg(%d) = %d, want %d", v, g.Degree(int64(v)), want)
		}
	}
	nb := sortedCopy(g.Neighbors(0))
	want := []int64{1, 1, 2}
	if len(nb) != len(want) {
		t.Fatalf("neighbors(0) = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(0) = %v, want %v", nb, want)
		}
	}
	if g.NumEdgesStored() != 12 { // 6 undirected non-loop edges x 2
		t.Fatalf("NumEdgesStored = %d", g.NumEdgesStored())
	}
	if g.Bytes() != int64(7*8+12*8) {
		t.Fatalf("Bytes = %d", g.Bytes())
	}
}

func TestBuildForwardPartitioning(t *testing.T) {
	part := twoNodes() // node 0 owns {0,1,2}, node 1 owns {3,4,5}
	fg, err := BuildForward(tinyGraph(), part)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg.PerNode) != 2 {
		t.Fatalf("replicas: %d", len(fg.PerNode))
	}
	// Every neighbor stored in replica k must be owned by node k.
	for k, g := range fg.PerNode {
		for v := int64(0); v < 6; v++ {
			for _, nb := range g.Neighbors(v) {
				if part.NodeOf(int(nb)) != k {
					t.Fatalf("replica %d holds neighbor %d", k, nb)
				}
			}
		}
	}
	// Per-vertex degrees summed over replicas match the full degree.
	for v, want := range tinyDegrees {
		if fg.Degree(int64(v)) != want {
			t.Fatalf("fwd deg(%d) = %d, want %d", v, fg.Degree(int64(v)), want)
		}
	}
	// Vertex 2's neighbors split: {0,1} on node 0, {3} on node 1.
	n0 := sortedCopy(fg.PerNode[0].Neighbors(2))
	if len(n0) != 2 || n0[0] != 0 || n0[1] != 1 {
		t.Fatalf("node 0 neighbors of 2: %v", n0)
	}
	n1 := fg.PerNode[1].Neighbors(2)
	if len(n1) != 1 || n1[0] != 3 {
		t.Fatalf("node 1 neighbors of 2: %v", n1)
	}
	if fg.NumEdgesStored() != 12 {
		t.Fatalf("NumEdgesStored = %d", fg.NumEdgesStored())
	}
}

func TestBuildBackwardPartitioning(t *testing.T) {
	part := twoNodes()
	bg, err := BuildBackward(tinyGraph(), part, SortByID)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range tinyDegrees {
		if bg.Degree(int64(v)) != want {
			t.Fatalf("bwd deg(%d) = %d, want %d", v, bg.Degree(int64(v)), want)
		}
	}
	// SortByID ordering.
	nb := bg.Neighbors(0)
	want := []int64{1, 1, 2} // duplicate kept
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(0) = %v, want %v", nb, want)
		}
	}
	// Node locality: vertex 4 lives on node 1.
	g1 := bg.PerNode[1]
	if g1.Base != 3 || g1.Len != 3 {
		t.Fatalf("node 1 range: base %d len %d", g1.Base, g1.Len)
	}
	if g1.Degree(4) != 1 || g1.Neighbors(4)[0] != 3 {
		t.Fatalf("neighbors(4): %v", g1.Neighbors(4))
	}
}

func TestBuildBackwardDegreeDescSort(t *testing.T) {
	part := twoNodes()
	bg, err := BuildBackward(tinyGraph(), part, SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	deg := tinyDegrees
	for v := int64(0); v < 6; v++ {
		nb := bg.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			da, db := deg[nb[i-1]], deg[nb[i]]
			if da < db {
				t.Fatalf("neighbors(%d) = %v not degree-descending", v, nb)
			}
			if da == db && nb[i-1] > nb[i] {
				t.Fatalf("neighbors(%d) = %v tie not ID-ascending", v, nb)
			}
		}
	}
}

func TestBuildRejectsMismatchedPartition(t *testing.T) {
	part := numa.NewPartition(numa.Topology{Nodes: 2, CoresPerNode: 1}, 5)
	if _, _, err := Build(tinyGraph(), part, SortNone); err == nil {
		t.Error("build accepted wrong partition")
	}
	if _, err := BuildForward(tinyGraph(), part); err == nil {
		t.Error("forward build accepted wrong partition")
	}
	if _, err := BuildBackward(tinyGraph(), part, SortNone); err == nil {
		t.Error("backward build accepted wrong partition")
	}
}

func TestBuildRejectsUnknownMode(t *testing.T) {
	for _, mode := range []SortMode{-1, 3} {
		if _, _, err := Build(tinyGraph(), twoNodes(), mode); err == nil {
			t.Errorf("build accepted %v", mode)
		}
		if _, err := BuildBackward(tinyGraph(), twoNodes(), mode); err == nil {
			t.Errorf("backward build accepted %v", mode)
		}
	}
}

// referenceBuild is the sort-based construction the transposing builders
// replaced, kept as their oracle: per-node counting and placement passes
// for the forward graph with every list sorted, and the backward graph in
// arrival order, then sorted per mode.
func referenceBuild(src edgelist.Source, part *numa.Partition, mode SortMode) (*ForwardGraph, *BackwardGraph) {
	n := src.NumVertices()
	nodes := part.Topology.Nodes
	deg := make([]int64, n)
	fg := &ForwardGraph{Part: part, PerNode: make([]*Graph, nodes)}
	for k := range fg.PerNode {
		fg.PerNode[k] = &Graph{NumVertices: n, Index: make([]int64, n+1)}
	}
	_ = src.ForEach(func(e edgelist.Edge) error {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
			fg.PerNode[part.NodeOf(int(e.V))].Index[e.U+1]++
			fg.PerNode[part.NodeOf(int(e.U))].Index[e.V+1]++
		}
		return nil
	})
	fwdCursors := make([][]int64, nodes)
	for k, g := range fg.PerNode {
		for i := int64(0); i < n; i++ {
			g.Index[i+1] += g.Index[i]
		}
		g.Value = make([]int64, g.Index[n])
		fwdCursors[k] = slices.Clone(g.Index[:n])
	}
	bg := &BackwardGraph{Part: part, PerNode: make([]*LocalGraph, nodes)}
	for k := range bg.PerNode {
		lo, hi := part.Range(k)
		index := make([]int64, hi-lo+1)
		for i := range deg[lo:hi] {
			index[i+1] = index[i] + deg[lo+i]
		}
		bg.PerNode[k] = &LocalGraph{Base: int64(lo), Len: int64(hi - lo), Index: index, Value: make([]int64, index[hi-lo])}
	}
	offsets := make([]int64, n)
	place := func(u, v int64) {
		k := part.NodeOf(int(v))
		fg.PerNode[k].Value[fwdCursors[k][u]] = v
		fwdCursors[k][u]++
		g := bg.PerNode[part.NodeOf(int(u))]
		g.Value[g.Index[u-g.Base]+offsets[u]] = v
		offsets[u]++
	}
	_ = src.ForEach(func(e edgelist.Edge) error {
		if e.U != e.V {
			place(e.U, e.V)
			place(e.V, e.U)
		}
		return nil
	})
	less := func(a, b int64) bool { return a < b }
	if mode == SortByDegreeDesc {
		less = func(a, b int64) bool { return deg[a] > deg[b] || deg[a] == deg[b] && a < b }
	}
	for _, g := range fg.PerNode {
		for i := int64(0); i < n; i++ {
			nb := g.Value[g.Index[i]:g.Index[i+1]]
			sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
		}
	}
	for _, g := range bg.PerNode {
		for i := int64(0); mode != SortNone && i < g.Len; i++ {
			nb := g.Value[g.Index[i]:g.Index[i+1]]
			sort.Slice(nb, func(a, b int) bool { return less(nb[a], nb[b]) })
		}
	}
	return fg, bg
}

// randomInstance is a seeded edge list over n vertices with hubs (endpoints
// skewed toward low IDs), self-loops, duplicate edges in either
// orientation, and isolated vertices: the top tenth of the IDs is never
// drawn.
func randomInstance(seed, n int64, m int) edgelist.Source {
	r := rand.New(rand.NewSource(seed))
	drawn := n - n/10
	draw := func() int64 {
		x := r.Int63n(drawn)
		return x * x / drawn
	}
	list := &edgelist.List{NumVertices: n}
	for len(list.Edges) < m {
		e := edgelist.Edge{U: draw(), V: draw()}
		switch r.Intn(20) {
		case 0:
			e.V = e.U
		case 1:
			if len(list.Edges) > 0 {
				e = list.Edges[r.Intn(len(list.Edges))]
				e.U, e.V = e.V, e.U
			}
		}
		list.Edges = append(list.Edges, e)
	}
	return edgelist.ListSource{List: list}
}

func sameForward(t *testing.T, got, want *ForwardGraph) {
	t.Helper()
	if len(got.PerNode) != len(want.PerNode) {
		t.Fatalf("%d forward nodes, want %d", len(got.PerNode), len(want.PerNode))
	}
	for k, g := range got.PerNode {
		w := want.PerNode[k]
		if g.NumVertices != w.NumVertices || !slices.Equal(g.Index, w.Index) || !slices.Equal(g.Value, w.Value) {
			t.Fatalf("forward node %d differs from the reference", k)
		}
	}
}

func sameBackward(t *testing.T, got, want *BackwardGraph) {
	t.Helper()
	if len(got.PerNode) != len(want.PerNode) {
		t.Fatalf("%d backward nodes, want %d", len(got.PerNode), len(want.PerNode))
	}
	for k, g := range got.PerNode {
		w := want.PerNode[k]
		if g.Base != w.Base || g.Len != w.Len || !slices.Equal(g.Index, w.Index) || !slices.Equal(g.Value, w.Value) {
			t.Fatalf("backward node %d differs from the reference", k)
		}
	}
}

// TestBuildMatchesReference checks Build, BuildForward, BuildBackward and
// BuildSimple array for array against the sort-based reference, in every
// mode, on random instances over partitions whose node count does not
// divide n, and on a Kronecker instance.
func TestBuildMatchesReference(t *testing.T) {
	kron, err := generator.Generate(generator.Config{Scale: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	type instance struct {
		name string
		src  edgelist.Source
	}
	var insts []instance
	for seed := int64(1); seed <= 3; seed++ {
		insts = append(insts, instance{fmt.Sprintf("random%d", seed), randomInstance(seed, 1000, 4000)})
	}
	insts = append(insts, instance{"kronecker", edgelist.ListSource{List: kron}})
	for _, in := range insts {
		n := int(in.src.NumVertices())
		one := numa.NewPartition(numa.Topology{Nodes: 1, CoresPerNode: 1}, n)
		_, want := referenceBuild(in.src, one, SortNone)
		simple, err := BuildSimple(in.src)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(simple.Index, want.PerNode[0].Index) || !slices.Equal(simple.Value, want.PerNode[0].Value) {
			t.Fatalf("%s: BuildSimple differs from the reference", in.name)
		}
		for _, nodes := range []int{1, 3, 4, 16} {
			part := numa.NewPartition(numa.Topology{Nodes: nodes, CoresPerNode: 1}, n)
			for _, mode := range []SortMode{SortNone, SortByID, SortByDegreeDesc} {
				t.Run(fmt.Sprintf("%s/nodes%d/%v", in.name, nodes, mode), func(t *testing.T) {
					wantF, wantB := referenceBuild(in.src, part, mode)
					fg, bg, err := Build(in.src, part, mode)
					if err != nil {
						t.Fatal(err)
					}
					sameForward(t, fg, wantF)
					sameBackward(t, bg, wantB)
					if fg, err = BuildForward(in.src, part); err != nil {
						t.Fatal(err)
					}
					sameForward(t, fg, wantF)
					if bg, err = BuildBackward(in.src, part, mode); err != nil {
						t.Fatal(err)
					}
					sameBackward(t, bg, wantB)
				})
			}
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildAllocs bounds the builders' scratch: Build allocates its two
// results and O(n + maximum degree) words besides, and BuildBackward at
// most one node's forward graph more.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	list, err := generator.Generate(generator.Config{Scale: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))
	n := list.NumVertices
	for _, mode := range []SortMode{SortNone, SortByID, SortByDegreeDesc} {
		var fg *ForwardGraph
		var bg *BackwardGraph
		got := allocated(func() { fg, bg, err = Build(src, part, mode) })
		if err != nil {
			t.Fatal(err)
		}
		var maxDeg, node int64
		for _, g := range bg.PerNode {
			node = max(node, int64(len(g.Value)))
			for i := int64(0); i < g.Len; i++ {
				maxDeg = max(maxDeg, g.Degree(g.Base+i))
			}
		}
		// Degrees, the degree order and its counts; the allocator rounds
		// each of those and the graphs' 4 arrays per node up to a page.
		scratch := 8*(2*n+maxDeg+1) + 8<<10*int64(4*len(bg.PerNode)+3)
		if limit := fg.Bytes() + bg.Bytes() + scratch; got > uint64(limit) {
			t.Errorf("%v: Build allocated %d bytes, want at most %d", mode, got, limit)
		}
		got = allocated(func() { bg, err = BuildBackward(src, part, mode) })
		if err != nil {
			t.Fatal(err)
		}
		if limit := bg.Bytes() + 8*(n+1+node) + scratch; got > uint64(limit) {
			t.Errorf("%v: BuildBackward allocated %d bytes, want at most %d", mode, got, limit)
		}
	}
}

func TestForwardBackwardConsistency(t *testing.T) {
	// On a generated graph, the multiset of neighbors of every vertex
	// must agree between the simple CSR, the forward replicas, and the
	// backward graph.
	list, err := generator.Generate(generator.Config{Scale: 9, EdgeFactor: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.Topology{Nodes: 3, CoresPerNode: 2}, int(list.NumVertices))
	simple, err := BuildSimple(src)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := BuildBackward(src, part, SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < list.NumVertices; v++ {
		want := sortedCopy(simple.Neighbors(v))
		var fwd []int64
		for _, g := range fg.PerNode {
			fwd = append(fwd, g.Neighbors(v)...)
		}
		fwd = sortedCopy(fwd)
		bwd := sortedCopy(bg.Neighbors(v))
		if len(want) != len(fwd) || len(want) != len(bwd) {
			t.Fatalf("vertex %d: degree mismatch %d/%d/%d",
				v, len(want), len(fwd), len(bwd))
		}
		for i := range want {
			if want[i] != fwd[i] || want[i] != bwd[i] {
				t.Fatalf("vertex %d: neighbor multiset mismatch", v)
			}
		}
	}
}

func TestIndexMonotonic(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 8, EdgeFactor: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.Topology{Nodes: 4, CoresPerNode: 1}, int(list.NumVertices))
	fg, err := BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	for k, g := range fg.PerNode {
		for i := 0; i+1 < len(g.Index); i++ {
			if g.Index[i] > g.Index[i+1] {
				t.Fatalf("replica %d: index not monotone at %d", k, i)
			}
		}
		if g.Index[len(g.Index)-1] != int64(len(g.Value)) {
			t.Fatalf("replica %d: index end != len(value)", k)
		}
	}
}

func TestSortModeString(t *testing.T) {
	if SortNone.String() != "none" || SortByID.String() != "id" ||
		SortByDegreeDesc.String() != "degree-desc" {
		t.Fatal("SortMode strings")
	}
	if SortMode(9).String() == "" {
		t.Fatal("unknown SortMode string empty")
	}
}

func TestModelSizes(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 12}
	m := ModelSizes(27, 16, topo)
	// Paper's Table II: forward 40.1 GB, backward 33.1 GB. Our layouts
	// give 36 / 33 GiB — the backward graph matches and the forward is
	// within 10%.
	gib := func(b int64) float64 { return float64(b) / (1 << 30) }
	if f := gib(m.Forward); f < 33 || f > 44 {
		t.Errorf("forward at scale 27 = %.1f GiB, want ~36-40", f)
	}
	if b := gib(m.Backward); b < 30 || b > 36 {
		t.Errorf("backward at scale 27 = %.1f GiB, want ~33", b)
	}
	if m.Forward <= m.Backward {
		t.Error("forward graph must be larger than backward (replicated index)")
	}
	if m.Total() != m.EdgeList+m.GraphTotal() {
		t.Error("Total != EdgeList + GraphTotal")
	}
}

func TestModelSizesDoubling(t *testing.T) {
	topo := numa.DefaultTopology
	f := func(s uint8) bool {
		scale := int(s)%10 + 15
		a := ModelSizes(scale, 16, topo)
		b := ModelSizes(scale+1, 16, topo)
		// Doubling the scale roughly doubles every component.
		return b.EdgeList == 2*a.EdgeList &&
			b.Forward > 19*a.Forward/10 && b.Forward <= 2*a.Forward &&
			b.Backward > 19*a.Backward/10 && b.Backward <= 2*a.Backward
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestModelSizesMatchMeasured(t *testing.T) {
	// The analytic model must agree with the byte counts of real built
	// graphs up to the self-loop correction.
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	topo := numa.DefaultTopology
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := BuildBackward(src, part, SortNone)
	if err != nil {
		t.Fatal(err)
	}
	m := ModelSizes(10, 16, topo)
	if fg.Bytes() > m.Forward {
		t.Errorf("measured forward %d exceeds model %d", fg.Bytes(), m.Forward)
	}
	if fg.Bytes() < m.Forward*9/10 {
		t.Errorf("measured forward %d far below model %d", fg.Bytes(), m.Forward)
	}
	if bg.Bytes() > m.Backward || bg.Bytes() < m.Backward*9/10 {
		t.Errorf("measured backward %d vs model %d", bg.Bytes(), m.Backward)
	}
}

func BenchmarkBuildScale14(b *testing.B) {
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(src, part, SortByDegreeDesc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildForwardScale14(b *testing.B) {
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildForward(src, part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildBackwardScale14(b *testing.B) {
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBackward(src, part, SortByDegreeDesc); err != nil {
			b.Fatal(err)
		}
	}
}

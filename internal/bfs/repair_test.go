package bfs

import (
	"errors"
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

func buildGraphsFromList(t *testing.T, list *edgelist.List, part *numa.Partition) (*csr.ForwardGraph, *csr.BackwardGraph) {
	t.Helper()
	src := edgelist.ListSource{List: list}
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	return fg, bg
}

// dynRef mirrors a dynamic graph as per-vertex neighbor multisets, with
// dyn's semantics: a deletion removes every copy of the edge.
type dynRef struct {
	n   int64
	adj []map[int64]int
}

func newDynRef(list *edgelist.List) *dynRef {
	rf := &dynRef{n: list.NumVertices, adj: make([]map[int64]int, list.NumVertices)}
	for v := range rf.adj {
		rf.adj[v] = map[int64]int{}
	}
	for _, e := range list.Edges {
		if e.U == e.V {
			continue
		}
		rf.adj[e.U][e.V]++
		rf.adj[e.V][e.U]++
	}
	return rf
}

func (rf *dynRef) apply(up EdgeUpdate) {
	if up.Del {
		delete(rf.adj[up.U], up.V)
		delete(rf.adj[up.V], up.U)
	} else {
		rf.adj[up.U][up.V]++
		rf.adj[up.V][up.U]++
	}
}

// toggle generates size state-changing updates and applies them.
func (rf *dynRef) toggle(rng *uint64, size int) []EdgeUpdate {
	var batch []EdgeUpdate
	for len(batch) < size {
		*rng = *rng*6364136223846793005 + 1442695040888963407
		u := int64(*rng>>33) % rf.n
		*rng = *rng*6364136223846793005 + 1442695040888963407
		v := int64(*rng>>33) % rf.n
		if u == v {
			continue
		}
		up := EdgeUpdate{U: u, V: v, Del: rf.adj[u][v] > 0}
		rf.apply(up)
		batch = append(batch, up)
	}
	return batch
}

func (rf *dynRef) list() *edgelist.List {
	list := &edgelist.List{NumVertices: rf.n}
	for v := int64(0); v < rf.n; v++ {
		for nb, c := range rf.adj[v] {
			if v < nb {
				for j := 0; j < c; j++ {
					list.Edges = append(list.Edges, edgelist.Edge{U: v, V: nb})
				}
			}
		}
	}
	return list
}

// freshCanonicalTree runs the canonical top-down BFS over list.
func freshCanonicalTree(t *testing.T, list *edgelist.List, part *numa.Partition, topo numa.Topology, root int64) []int64 {
	t.Helper()
	fg, bg := buildGraphsFromList(t, list, part)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Mode: ModeTopDownOnly})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	return res.CloneTree()
}

func compareTrees(t *testing.T, got, want []int64, tag string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: tree length %d, want %d", tag, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: parent[%d] = %d, fresh rebuild says %d", tag, v, got[v], want[v])
		}
	}
}

func TestDepthsFromTree(t *testing.T) {
	// 0 <- 1 <- 2, 0 <- 3, 4 unreachable.
	parent := []int64{0, 0, 1, 0, -1}
	depth, err := DepthsFromTree(0, parent)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 2, 1, -1}
	for v := range want {
		if depth[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, depth[v], want[v])
		}
	}
	if _, err := DepthsFromTree(0, []int64{0, 2, 1}); err == nil {
		t.Fatal("parent cycle not detected")
	}
}

// TestRepairPathGraph hand-checks orphaning, unreachability, and
// re-attachment on a path 0-1-2-3-4.
func TestRepairPathGraph(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	rf := &dynRef{n: 5, adj: make([]map[int64]int, 5)}
	for v := range rf.adj {
		rf.adj[v] = map[int64]int{}
	}
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		rf.apply(EdgeUpdate{U: e[0], V: e[1]})
	}
	part := numa.NewPartition(topo, 5)
	st := NewTreeState(0, freshCanonicalTree(t, rf.list(), part, topo, 0))

	// Cut the path at (1,2): vertices 2,3,4 become unreachable.
	batch := []EdgeUpdate{{U: 1, V: 2, Del: true}}
	for _, up := range batch {
		rf.apply(up)
	}
	fg, bg := buildGraphsFromList(t, rf.list(), part)
	_, bwd := wrapDRAM(t, fg, bg)
	stats, err := RepairTree(st, batch, bwd, part, vtime.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Orphaned != 3 {
		t.Fatalf("orphaned %d vertices, want 3", stats.Orphaned)
	}
	compareTrees(t, st.Parent, []int64{0, 0, -1, -1, -1}, "after cut")

	// Re-attach the far end directly to the root: 4 at depth 1, 3 via 4,
	// 2 via 3.
	batch = []EdgeUpdate{{U: 0, V: 4}}
	for _, up := range batch {
		rf.apply(up)
	}
	fg, bg = buildGraphsFromList(t, rf.list(), part)
	_, bwd = wrapDRAM(t, fg, bg)
	if _, err := RepairTree(st, batch, bwd, part, vtime.NewClock(0)); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, st.Parent, []int64{0, 0, 3, 4, 0}, "after re-attach")
}

// TestRepairCanonicalizesBatch checks that an insert revoked by a later
// delete in the same batch does not leak a bogus depth into the repair.
func TestRepairCanonicalizesBatch(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	rf := &dynRef{n: 6, adj: make([]map[int64]int, 6)}
	for v := range rf.adj {
		rf.adj[v] = map[int64]int{}
	}
	// Path 0-1-2-3-4-5: vertex 5 sits at depth 5.
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		rf.apply(EdgeUpdate{U: e[0], V: e[1]})
	}
	part := numa.NewPartition(topo, 6)
	st := NewTreeState(0, freshCanonicalTree(t, rf.list(), part, topo, 0))

	// Insert a shortcut (0,5) and revoke it in the same batch: the graph
	// is unchanged, and so must be the tree.
	batch := []EdgeUpdate{{U: 0, V: 5}, {U: 0, V: 5, Del: true}}
	fg, bg := buildGraphsFromList(t, rf.list(), part)
	_, bwd := wrapDRAM(t, fg, bg)
	if _, err := RepairTree(st, batch, bwd, part, vtime.NewClock(0)); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, st.Parent, freshCanonicalTree(t, rf.list(), part, topo, 0), "after revoked insert")
}

// TestRepairMatchesFreshRebuild drives rounds of random insertions and
// deletions through RepairTree and demands the repaired tree stay
// bit-identical to a fresh canonical rebuild over the updated graph.
func TestRepairMatchesFreshRebuild(t *testing.T) {
	topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
	_, _, list, part := buildTestGraphs(t, 9, 5, topo)
	rf := newDynRef(list)
	root := int64(0)
	for len(rf.adj[root]) == 0 {
		root++
	}
	st := NewTreeState(root, freshCanonicalTree(t, rf.list(), part, topo, root))

	rng := uint64(0x5eed)
	for round := 0; round < 6; round++ {
		batch := rf.toggle(&rng, 40)
		updated := rf.list()
		fg, bg := buildGraphsFromList(t, updated, part)
		_, bwd := wrapDRAM(t, fg, bg)
		stats, err := RepairTree(st, batch, bwd, part, vtime.NewClock(0))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.ParentsRecomputed == 0 {
			t.Fatalf("round %d: repair did no work", round)
		}
		compareTrees(t, st.Parent, freshCanonicalTree(t, updated, part, topo, root), "round")
		checkKeptDepths(t, st, round)
	}
}

// checkKeptDepths demands the depths a repair keeps for the next one equal
// the depths of the tree it left behind.
func checkKeptDepths(t *testing.T, st *TreeState, round int) {
	t.Helper()
	want, err := DepthsFromTree(st.Root, st.Parent)
	if err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	for v, d := range want {
		if d < 0 {
			d = unreached
		}
		if got := st.rep.depth[v]; got != d {
			t.Fatalf("round %d: kept depth[%d] = %d, the tree says %d", round, v, got, d)
		}
	}
}

// failAfter passes scans to a working scanner until limit of them have
// run, then fails every one, as a tail store dying mid-repair does.
type failAfter struct {
	BackwardAccess
	limit int64
}

func (f *failAfter) NewScanner(clock *vtime.Clock) BackwardScan {
	return failAfterScan{f.BackwardAccess.NewScanner(clock), f}
}

type failAfterScan struct {
	BackwardScan
	f *failAfter
}

func (s failAfterScan) Scan(k int, v int64, fn func(nb int64) bool) (int64, int64, error) {
	if s.f.limit == 0 {
		return 0, 0, errors.New("tail store died")
	}
	s.f.limit--
	return s.BackwardScan.Scan(k, v, fn)
}

// TestFailedRepairDropsDepths fails a repair at its first settling scan,
// after phase 2 has lowered a depth but before phase 3 rewrites any parent.
// The half-updated depths must not survive: the retry derives them from
// Parent again.
func TestFailedRepairDropsDepths(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	rf := &dynRef{n: 6, adj: make([]map[int64]int, 6)}
	for v := range rf.adj {
		rf.adj[v] = map[int64]int{}
	}
	// Path 0-1-2-3-4-5, then a shortcut (0,3): 3 rises to depth 1 and
	// takes 4 and 5 up with it, while every parent but 3's stays put.
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}} {
		rf.apply(EdgeUpdate{U: e[0], V: e[1]})
	}
	part := numa.NewPartition(topo, 6)
	st := NewTreeState(0, freshCanonicalTree(t, rf.list(), part, topo, 0))
	batch := []EdgeUpdate{{U: 0, V: 3}}
	rf.apply(batch[0])
	fg, bg := buildGraphsFromList(t, rf.list(), part)
	_, bwd := wrapDRAM(t, fg, bg)

	if _, err := RepairTree(st, batch, &failAfter{bwd, 0}, part, vtime.NewClock(0)); err == nil {
		t.Fatal("the repair survived its scanner dying")
	}
	compareTrees(t, st.Parent, []int64{0, 0, 1, 2, 3, 4}, "after the failed repair")
	if _, err := RepairTree(st, batch, bwd, part, vtime.NewClock(0)); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, st.Parent, []int64{0, 0, 1, 0, 3, 4}, "retry")
	checkKeptDepths(t, st, 1)
}

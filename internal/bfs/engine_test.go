package bfs

import (
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
)

// buildTestGraphs constructs DRAM forward/backward graphs for a Kronecker
// instance.
func buildTestGraphs(t *testing.T, scale int, seed uint64, topo numa.Topology) (*csr.ForwardGraph, *csr.BackwardGraph, *edgelist.List, *numa.Partition) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatalf("build forward: %v", err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatalf("build backward: %v", err)
	}
	return fg, bg, list, part
}

// serialBFSLevels computes reference levels with a simple queue BFS over
// the edge list.
func serialBFSLevels(list *edgelist.List, root int64) []int64 {
	n := list.NumVertices
	adj := make([][]int64, n)
	for _, e := range list.Edges {
		if e.U == e.V {
			continue
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[root] = 0
	queue := []int64{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if levels[w] == -1 {
				levels[w] = levels[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return levels
}

// wrapDRAM adapts DRAM graphs into the access interfaces, flowing the
// backward graph through HybridBackward with limit 0 as core.Build does.
func wrapDRAM(t *testing.T, fg *csr.ForwardGraph, bg *csr.BackwardGraph) (ForwardAccess, BackwardAccess) {
	t.Helper()
	hb, err := semiext.BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		t.Fatalf("hybrid backward: %v", err)
	}
	return DRAMForward{G: fg}, HybridBackwardAccess{HB: hb}
}

func checkAgainstSerial(t *testing.T, tree []int64, list *edgelist.List, root int64) {
	t.Helper()
	want := serialBFSLevels(list, root)
	got, err := validate.Levels(tree, root)
	if err != nil {
		t.Fatalf("levels from tree: %v", err)
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d: level %d, serial BFS says %d", v, got[v], want[v])
		}
	}
}

func TestHybridMatchesSerialBFS(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 10, 1, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	for _, mode := range []Mode{ModeHybrid, ModeTopDownOnly, ModeBottomUpOnly} {
		r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Mode: mode, Alpha: 16, Beta: 160})
		if err != nil {
			t.Fatalf("%v: new runner: %v", mode, err)
		}
		for _, root := range []int64{0, 5, 100, list.NumVertices - 1} {
			if bg.Degree(root) == 0 {
				continue
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatalf("%v root %d: %v", mode, root, err)
			}
			checkAgainstSerial(t, res.Tree, list, root)
			rep, err := validate.Run(res.Tree, root, edgelist.ListSource{List: list})
			if err != nil {
				t.Fatalf("%v root %d: validate: %v", mode, root, err)
			}
			if rep.Visited != res.Visited {
				t.Fatalf("%v root %d: visited %d, validator says %d",
					mode, root, res.Visited, rep.Visited)
			}
		}
	}
}

func TestHybridSwitchesDirections(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 10, 2, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 64, Beta: 64})
	if err != nil {
		t.Fatal(err)
	}
	var root int64 = -1
	for v := int64(0); v < list.NumVertices; v++ {
		if bg.Degree(v) > 0 {
			root = v
			break
		}
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatalf("expected direction switches with alpha=64 on a scale-10 graph, got none (levels: %+v)", res.Levels)
	}
	seen := map[Direction]bool{}
	for _, l := range res.Levels {
		seen[l.Direction] = true
	}
	if !seen[TopDown] || !seen[BottomUp] {
		t.Fatalf("expected both directions, got %v", seen)
	}
	checkAgainstSerial(t, res.Tree, list, root)
}

func TestNVMForwardMatchesDRAM(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 3, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	_, bwd := wrapDRAM(t, fg, bg)

	rDRAM, err := NewRunner(DRAMForward{G: fg}, bwd, part, Config{Topology: topo, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	rNVM, err := NewRunner(NVMForward{SF: sf}, bwd, part, Config{Topology: topo, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(1)
	for bg.Degree(root) == 0 {
		root++
	}
	a, err := rDRAM.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	aTree := a.CloneTree()
	b, err := rNVM.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, aTree, list, root)
	checkAgainstSerial(t, b.Tree, list, root)
	if a.Visited != b.Visited {
		t.Fatalf("visited: DRAM %d, NVM %d", a.Visited, b.Visited)
	}
	if b.Time <= a.Time {
		t.Errorf("NVM run (%v) should be slower than DRAM run (%v)", b.Time, a.Time)
	}
	if b.ExaminedNVM == 0 {
		t.Error("NVM run examined no NVM edges")
	}
	if dev.Snapshot().Reads == 0 {
		t.Error("device saw no read requests")
	}
}

func TestRunIsVirtualTimeDeterministic(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 9, 7, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	var times []int64
	for range 3 {
		r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 32, Beta: 320})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, int64(res.Time))
	}
	_ = list
	if times[0] != times[1] || times[1] != times[2] {
		t.Fatalf("virtual time differs across runners: %v", times)
	}
}

func TestRunnerReuseAcrossRoots(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 8, 11, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 16, Beta: 160})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for root := int64(0); root < list.NumVertices && count < 10; root++ {
		if bg.Degree(root) == 0 {
			continue
		}
		count++
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		checkAgainstSerial(t, res.Tree, list, root)
	}
	if count == 0 {
		t.Fatal("no usable roots")
	}
}

// TestDRAMRunsReportNoStorage: over fully DRAM-resident graphs a run's
// storage record is nil, as RunStats documents, not an empty slice.
func TestDRAMRunsReportNoStorage(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, _, part := buildTestGraphs(t, 8, 11, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	cfg := Config{Topology: topo, Alpha: 16, Beta: 160}
	r, err := NewRunner(fwd, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchRunner(fwd, bwd, part, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := br.RunBatch([]int64{root})
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range []RunStats{res.RunStats, bres.RunStats} {
		if rs.Layers != nil || rs.Resilience.Devices != nil {
			t.Fatalf("a DRAM-only run reports Layers %#v and Devices %#v, want nil", rs.Layers, rs.Resilience.Devices)
		}
	}
}

func TestRunRejectsBadRoot(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, _, part := buildTestGraphs(t, 6, 1, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(-1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := r.Run(1 << 20); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestReferenceRunnerMatchesSerial(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	list, err := generator.Generate(generator.Config{Scale: 9, EdgeFactor: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	g, err := csr.BuildSimple(src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefRunner(g, topo, numa.DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for g.Degree(root) == 0 {
		root++
	}
	res, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
	if res.Time <= 0 {
		t.Error("reference run took no virtual time")
	}
}

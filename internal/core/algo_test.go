package core

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/vp"
)

// buildAlgoSystem builds a scale-10 system under sc and returns it with
// the generated edge list.
func buildAlgoSystem(t *testing.T, sc Scenario) (*System, *edgelist.List) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	sys, err := Build(edgelist.ListSource{List: list}, topo, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, list
}

func algoConfig() vp.Config {
	return vp.Config{Config: bfs.Config{Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}, Alpha: 4, Beta: 40}}
}

// unionFindMinLabels is the label oracle: each vertex's component minimum
// vertex ID, from a union-find over the raw edge list.
func unionFindMinLabels(list *edgelist.List) []int64 {
	parent := make([]int64, list.NumVertices)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range list.Edges {
		if e.U != e.V {
			if ra, rb := find(e.U), find(e.V); ra != rb {
				parent[rb] = ra
			}
		}
	}
	minOf := make(map[int64]int64)
	for v := int64(0); v < list.NumVertices; v++ {
		r := find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	}
	out := make([]int64, list.NumVertices)
	for v := range out {
		out[v] = minOf[find(int64(v))]
	}
	return out
}

// TestComponentsThroughFullStack runs label propagation through the full
// NVM stack — compressed mirrored checksummed cached stores with partial
// backward offload, under injected recoverable faults — and requires the
// labels to match both the union-find oracle and a DRAM-only run exactly.
func TestComponentsThroughFullStack(t *testing.T) {
	sc := ScenarioPCIeFlash.WithAlgorithm(AlgoComponents)
	sc.Name = "full-stack-cc"
	sc.Checksums = true
	sc.Replicas = 2
	sc.CacheBytes = 1 << 20
	sc.BackwardDRAMEdgeLimit = 4
	sc.Compress = true
	sc.Faults = faults.Config{Seed: 1234, TransientRate: 0.05, CorruptRate: 0.01}

	var want []int64
	for _, s := range []Scenario{ScenarioDRAMOnly.WithAlgorithm(AlgoComponents), sc} {
		sys, list := buildAlgoSystem(t, s)
		prog, err := sys.NewProgram(vp.PageRankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sys.NewEngine(prog, algoConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(0); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		labels := prog.(*vp.Components).Labels()
		if want == nil {
			want = unionFindMinLabels(list)
		}
		for v, l := range labels {
			if l != want[v] {
				t.Fatalf("%s: label[%d] = %d, oracle has %d", s.Name, v, l, want[v])
			}
		}
	}
}

// TestPageRankMirrorFailover is PageRank's degradation path: the program
// is pull-only, so a device death cannot be rescued by a direction switch —
// the mirror layer must absorb it. With one replica of a two-way mirror
// killed mid-run, the run must record failovers and still produce ranks
// bit-identical to a DRAM-only run.
func TestPageRankMirrorFailover(t *testing.T) {
	dram := ScenarioDRAMOnly.WithAlgorithm(AlgoPageRank)
	sys, _ := buildAlgoSystem(t, dram)
	prog, err := sys.NewProgram(vp.PageRankOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sys.NewEngine(prog, algoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), prog.(*vp.PageRank).Ranks()...)
	wantIters := prog.(*vp.PageRank).Iterations()

	// Pull sweeps read the backward graph, so its tails must be the
	// offloaded, mirrored structure for a replica death to matter.
	sc := ScenarioPCIeFlash.WithAlgorithm(AlgoPageRank)
	sc.Name = "pcie-pr-failover"
	sc.Checksums = true
	sc.Replicas = 2
	sc.CacheBytes = 1 << 20
	sc.BackwardDRAMEdgeLimit = 4
	sc.Faults = faults.Config{Seed: 99, DieAfterReads: 10, DieReplica: 1}

	fsys, _ := buildAlgoSystem(t, sc)
	fprog, err := fsys.NewProgram(vp.PageRankOptions{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	feng, err := fsys.NewEngine(fprog, algoConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := feng.Run(0)
	if err != nil {
		t.Fatalf("run with dying replica: %v", err)
	}
	if res.Resilience.Failovers == 0 {
		t.Error("no failovers recorded; the replica death did not exercise the mirror path")
	}
	if got := fprog.(*vp.PageRank).Iterations(); got != wantIters {
		t.Errorf("degraded run took %d iterations, DRAM reference took %d", got, wantIters)
	}
	for v, r := range fprog.(*vp.PageRank).Ranks() {
		if r != want[v] {
			t.Fatalf("rank[%d] = %v under failover, DRAM reference %v — not bit-identical", v, r, want[v])
		}
	}
}

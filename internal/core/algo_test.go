package core_test

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/numa"
	"semibfs/internal/vp"
)

// buildAlgoSystem builds a scale-10 system under sc and returns it with
// the generated edge list.
func buildAlgoSystem(t *testing.T, sc core.Scenario) (*core.System, *edgelist.List) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	sys, err := core.Build(edgelist.ListSource{List: list}, topo, sc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, list
}

// runProgram runs algorithm a once over sys through graph500.RunProgram.
func runProgram(t *testing.T, sys *core.System, a vp.Algorithm, pr vp.PageRankOptions) (vp.Program, *vp.Result) {
	t.Helper()
	var prog vp.Program
	var res *vp.Result
	cfg := vp.Config{Config: bfs.Config{Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}, Alpha: 4, Beta: 40}}
	err := graph500.RunProgram(sys, a, cfg, pr, []int64{0}, func(_ int64, p vp.Program, r *vp.Result) error {
		prog, res = p, r
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sys.Scenario.Name, err)
	}
	return prog, res
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
	sc := core.ScenarioPCIeFlash
	sc.Name = "full-stack-cc"
	sc.Checksums = true
	sc.Replicas = 2
	sc.CacheBytes = 1 << 20
	sc.BackwardDRAMEdgeLimit = 4
	sc.Compress = true
	sc.Faults = faults.Config{Seed: 1234, TransientRate: 0.05, CorruptRate: 0.01}

	var want []int64
	for _, s := range []core.Scenario{core.ScenarioDRAMOnly, sc} {
		sys, list := buildAlgoSystem(t, s)
		prog, _ := runProgram(t, sys, vp.AlgoComponents, vp.PageRankOptions{})
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
	pr := vp.PageRankOptions{Tol: 1e-8}
	sys, _ := buildAlgoSystem(t, core.ScenarioDRAMOnly)
	prog, _ := runProgram(t, sys, vp.AlgoPageRank, pr)
	want := append([]float64(nil), prog.(*vp.PageRank).Ranks()...)
	wantIters := prog.(*vp.PageRank).Iterations()

	// Pull sweeps read the backward graph, so its tails must be the
	// offloaded, mirrored structure for a replica death to matter.
	sc := core.ScenarioPCIeFlash
	sc.Name = "pcie-pr-failover"
	sc.Checksums = true
	sc.Replicas = 2
	sc.CacheBytes = 1 << 20
	sc.BackwardDRAMEdgeLimit = 4
	sc.Faults = faults.Config{Seed: 99, DieAfterReads: 10, DieReplica: 1}

	fsys, _ := buildAlgoSystem(t, sc)
	fprog, res := runProgram(t, fsys, vp.AlgoPageRank, pr)
	if res.Layers.Get("mirror", "failovers") == 0 {
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

package core

import (
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
)

func testSource(t *testing.T, scale int) edgelist.Source {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return edgelist.ListSource{List: list}
}

func TestScenarioDefinitions(t *testing.T) {
	if ScenarioDRAMOnly.HasNVM() {
		t.Error("DRAM-only has a device")
	}
	if !ScenarioPCIeFlash.HasNVM() || !ScenarioPCIeFlash.ForwardOnNVM {
		t.Error("PCIeFlash misconfigured")
	}
	if !ScenarioSSD.HasNVM() || !ScenarioSSD.ForwardOnNVM {
		t.Error("SSD misconfigured")
	}
	if ScenarioDRAMOnly.DRAMCapacity != 2*ScenarioPCIeFlash.DRAMCapacity {
		t.Error("the NVM scenarios should halve the DRAM (Table I)")
	}
	if len(Scenarios()) != 3 {
		t.Error("Scenarios() should list the paper's three configurations")
	}
}

func TestBuildDRAMOnly(t *testing.T) {
	src := testSource(t, 9)
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 2}, ScenarioDRAMOnly, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.Devices) > 0 {
		t.Error("DRAM-only built a device")
	}
	if sys.NVMBytes() != 0 {
		t.Errorf("NVM bytes %d", sys.NVMBytes())
	}
	if sys.DRAMBytes() == 0 {
		t.Error("no DRAM bytes accounted")
	}
	if sys.DRAMForwardBytes <= sys.DRAMBackwardBytes {
		t.Error("forward graph should outweigh backward (replicated index)")
	}
}

func TestBuildForwardOffload(t *testing.T) {
	src := testSource(t, 9)
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 2}, ScenarioPCIeFlash, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.Devices) == 0 {
		t.Fatal("no device built")
	}
	if sys.Devices[0].Profile().Name != "ioDrive2" {
		t.Errorf("device profile %q", sys.Devices[0].Profile().Name)
	}
	if sys.NVMForwardBytes == 0 || sys.DRAMForwardBytes != 0 {
		t.Errorf("forward placement: DRAM %d NVM %d",
			sys.DRAMForwardBytes, sys.NVMForwardBytes)
	}
	if sys.DRAMBackwardBytes == 0 || sys.NVMBackwardBytes != 0 {
		t.Errorf("backward placement: DRAM %d NVM %d",
			sys.DRAMBackwardBytes, sys.NVMBackwardBytes)
	}
}

func TestBuildBackwardLimit(t *testing.T) {
	src := testSource(t, 9)
	sc := ScenarioPCIeFlash
	sc.BackwardDRAMEdgeLimit = 2
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 2}, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.NVMBackwardBytes == 0 {
		t.Error("backward tails not offloaded")
	}
	if sys.HybridBackward() == nil {
		t.Error("hybrid backward not exposed")
	}
	if sys.HybridBackward().Limit != 2 {
		t.Errorf("limit %d", sys.HybridBackward().Limit)
	}
}

func TestBuildRejectsOffloadWithoutDevice(t *testing.T) {
	src := testSource(t, 8)
	sc := Scenario{Name: "bogus", ForwardOnNVM: true}
	if _, err := Build(src, numa.DefaultTopology, sc, BuildOptions{}); err == nil {
		t.Fatal("offload without device accepted")
	}
}

func TestBuildLatencyScale(t *testing.T) {
	src := testSource(t, 8)
	sc := ScenarioPCIeFlash.WithLatencyScale(0.25)
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 1}, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	want := nvm.ProfileIoDrive2.WithLatencyScale(0.25).ReadLatency
	if got := sys.Devices[0].Profile().ReadLatency; got != want {
		t.Fatalf("scaled latency %v, want %v", got, want)
	}
}

func TestBuildSortModeOverride(t *testing.T) {
	src := testSource(t, 8)
	opts := BuildOptions{SortMode: csr.SortByID}
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 1}, ScenarioDRAMOnly, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Check a high-degree vertex's neighbors are ID-ascending.
	hb := sys.HybridBackward()
	for k, node := range hb.PerNode {
		_ = k
		for i := int64(0); i < node.Len && i < 50; i++ {
			nb := node.DRAMValue[node.DRAMIndex[i]:node.DRAMIndex[i+1]]
			for j := 1; j < len(nb); j++ {
				if nb[j-1] > nb[j] {
					t.Fatalf("vertex %d neighbors not ID-sorted: %v", node.Base+i, nb)
				}
			}
		}
	}
}

func TestPlanPlacement(t *testing.T) {
	sizes := csr.ModelSizes(20, 16, numa.DefaultTopology)

	// Plenty of DRAM: nothing offloads.
	p := PlanPlacement(sizes, sizes.GraphTotal()*2)
	if p.ForwardOnNVM || p.BackwardDRAMEdgeLimit != 0 || !p.Fits {
		t.Fatalf("rich plan: %+v", p)
	}

	// Exactly too small for the forward graph: it moves to NVM.
	budget := sizes.Backward + sizes.Status + sizes.Forward/2
	p = PlanPlacement(sizes, budget)
	if !p.ForwardOnNVM || p.BackwardDRAMEdgeLimit != 0 || !p.Fits {
		t.Fatalf("forward-offload plan: %+v", p)
	}
	if p.NVMBytes != sizes.Forward {
		t.Fatalf("NVM bytes %d, want %d", p.NVMBytes, sizes.Forward)
	}

	// Tighter still: backward tails offload with the largest fitting k.
	budget = sizes.Status + sizes.Backward/2
	p = PlanPlacement(sizes, budget)
	if !p.ForwardOnNVM || p.BackwardDRAMEdgeLimit == 0 {
		t.Fatalf("tail-offload plan: %+v", p)
	}
	if !p.Fits {
		t.Fatalf("plan should fit: %+v", p)
	}

	// Impossible budget: the most aggressive plan, marked unfit.
	p = PlanPlacement(sizes, 1)
	if p.Fits {
		t.Fatal("impossible budget fits")
	}
	if p.BackwardDRAMEdgeLimit != 2 {
		t.Fatalf("most aggressive k = %d, want 2", p.BackwardDRAMEdgeLimit)
	}
}

func TestPlanPlacementMonotone(t *testing.T) {
	// A larger budget never produces a more aggressive plan.
	sizes := csr.ModelSizes(18, 16, numa.DefaultTopology)
	prevAggr := 1 << 30
	for _, budget := range []int64{
		1, sizes.Status, sizes.Status + sizes.Backward/4,
		sizes.Status + sizes.Backward, sizes.GraphTotal(), 2 * sizes.GraphTotal(),
	} {
		p := PlanPlacement(sizes, budget)
		aggr := 0
		if p.ForwardOnNVM {
			aggr = 100
		}
		if p.BackwardDRAMEdgeLimit > 0 {
			aggr += 100 - p.BackwardDRAMEdgeLimit
		}
		if aggr > prevAggr {
			t.Fatalf("budget %d more aggressive than smaller budget: %+v", budget, p)
		}
		prevAggr = aggr
	}
}

func TestPlanApply(t *testing.T) {
	p := Plan{ForwardOnNVM: true, BackwardDRAMEdgeLimit: 8, Budget: 1 << 30}
	sc := p.Apply("planned", nvm.ProfileSSD320)
	if !sc.ForwardOnNVM || sc.BackwardDRAMEdgeLimit != 8 || !sc.HasNVM() {
		t.Fatalf("scenario: %+v", sc)
	}
	flat := Plan{Budget: 1 << 40}
	sc = flat.Apply("all-dram", nvm.ProfileSSD320)
	if sc.HasNVM() {
		t.Fatal("no-offload plan got a device")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{ForwardOnNVM: true, BackwardDRAMEdgeLimit: 4}
	s := p.String()
	if s == "" {
		t.Fatal("empty String")
	}
}

func TestBuildWithFileStores(t *testing.T) {
	src := testSource(t, 8)
	sys, err := Build(src, numa.Topology{Nodes: 2, CoresPerNode: 1},
		ScenarioPCIeFlash, BuildOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.NVMForwardBytes == 0 {
		t.Fatal("file-backed offload stored nothing")
	}
}

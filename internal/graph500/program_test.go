package graph500

import (
	"reflect"
	"testing"

	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/nvm"
	"semibfs/internal/vp"
	"semibfs/internal/vtime"
)

// programRun is what one RunProgram run reports and leaves behind.
type programRun struct {
	Time       vtime.Duration
	Iterations int
	Layers     nvm.StackStats
	State      []byte // the program's packed per-vertex output
}

// TestRunProgramSharesOneSystem is the contract that lets the algorithm
// sweep run every program on one system per budget point: on the sweep's
// full stack (PCIe, compressed, two checksummed replicas, a page cache of
// 1/8 of the forward graph, four backward edges per vertex in DRAM), BFS,
// components and PageRank run back to back on one System, in two orders,
// and each returns what it returns on a freshly built System — the same
// virtual time, iterations, layer counters and per-vertex output.
func TestRunProgramSharesOneSystem(t *testing.T) {
	p := smallParams(core.ScenarioPCIeFlash)
	src := edgelist.ListSource{List: smallList(t, p)}
	build := func(sc core.Scenario) *core.System {
		t.Helper()
		sys, err := core.Build(src, p.BFS.WithDefaults().Topology, sc, core.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		return sys
	}
	sc := p.Scenario.WithIO(true, 0, 0).WithReplicas(2, 0)
	sc.Checksums = true
	sc.BackwardDRAMEdgeLimit = 4
	probe := build(sc)
	sc = sc.WithCache(probe.NVMForwardBytes/8, 4)
	roots, err := SampleRoots(src.NumVertices(), 3, p.Seed, probe.Backward.Degree)
	if err != nil {
		t.Fatal(err)
	}

	runs := func(sys *core.System, algo vp.Algorithm) []programRun {
		t.Helper()
		starts := []int64{0}
		if algo == vp.AlgoBFS {
			starts = roots
		}
		var out []programRun
		err := RunProgram(sys, algo, vp.Config{Config: p.BFS}, vp.PageRankOptions{}, starts,
			func(_ int64, prog vp.Program, res *vp.Result) error {
				out = append(out, programRun{res.Time, res.Iterations, res.Layers,
					prog.(vp.StateSnapshotter).PackState(nil)})
				return nil
			})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return out
	}
	fresh := map[vp.Algorithm][]programRun{}
	for _, algo := range vp.Algorithms() {
		fresh[algo] = runs(build(sc), algo)
		if fresh[algo][0].Layers.Get("mirror", "reads") == 0 {
			t.Fatalf("%s read nothing from the devices; the stack is not exercised", algo)
		}
	}
	for _, order := range [][]vp.Algorithm{
		{vp.AlgoBFS, vp.AlgoComponents, vp.AlgoPageRank},
		{vp.AlgoPageRank, vp.AlgoComponents, vp.AlgoBFS},
	} {
		shared := build(sc)
		for _, algo := range order {
			if got := runs(shared, algo); !reflect.DeepEqual(got, fresh[algo]) {
				t.Errorf("order %v: %s on a shared System differs from a fresh one", order, algo)
			}
		}
	}
}

package bfs

import (
	"testing"

	"semibfs/internal/numa"
)

// The allocation guards: a second and later run on one engine over DRAM
// graphs allocates its result, a closure per parallel phase and little else
// (17 objects per Run, 23 per RunBatch when written). In particular it builds
// no top-down hook and no bottom-up probe per worker per level: 48 workers of
// them put the parent at 511 and 1,191 objects on these two runs. One real
// worker: goroutines are not what is being counted.

const steadyStateAllocs = 48

func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	topo := numa.DefaultTopology
	fg, bg, _, part := buildTestGraphs(t, 12, 5, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, RealWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	run := func() {
		res, err := r.Run(root)
		if err != nil || res.Switches == 0 {
			t.Fatalf("run: %v, %+v; want a hybrid run with both directions", err, res)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > steadyStateAllocs {
		t.Fatalf("Runner.Run allocates %.0f objects per steady-state run, want <= %d", allocs, steadyStateAllocs)
	}
}

func TestBatchRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	topo := numa.DefaultTopology
	fg, bg, list, part := buildTestGraphs(t, 12, 5, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewBatchRunner(fwd, bwd, part, 64, Config{Topology: topo, RealWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	roots := pickRoots(t, bg.Degree, list.NumVertices, 64)
	run := func() {
		res, err := r.RunBatch(roots)
		if err != nil || res.Switches == 0 {
			t.Fatalf("batch: %v, %+v; want a hybrid batch with both directions", err, res)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > steadyStateAllocs {
		t.Fatalf("BatchRunner.RunBatch allocates %.0f objects per steady-state batch, want <= %d", allocs, steadyStateAllocs)
	}
}

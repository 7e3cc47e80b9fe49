package vp_test

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/vp"
)

// TestEngineSteadyStateAllocs is the vertex-program sibling of the guards in
// internal/bfs/allocs_test.go: a second and later PageRank run on one Engine
// over DRAM graphs allocates its result and two closures per sweep (the pull
// and the frontier broadcast, one per parallel phase) — no gather probe per
// worker per sweep, which with its captures was most of the parent's 140
// objects on this four-worker, eleven-sweep run.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	fwd, bwd, list, part := buildDRAM(t, 10, 5)
	deg := make([]int64, list.NumVertices)
	for v := range deg {
		deg[v] = bwd.Degree(int64(v))
	}
	eng, err := vp.NewEngine(fwd, bwd, part, vp.NewPageRank(deg, vp.PageRankOptions{Tol: 1e-4}), vpConfig(bfs.ModeHybrid))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := eng.Run(0)
		if err != nil || !res.Converged {
			t.Fatalf("run: %v, %+v; want a converged run", err, res)
		}
	}
	run()
	const limit = 48
	if allocs := testing.AllocsPerRun(10, run); allocs > limit {
		t.Fatalf("Engine.Run allocates %.0f objects per steady-state PageRank run, want <= %d", allocs, limit)
	}
}

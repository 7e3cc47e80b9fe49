package dyn_test

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// roundAllocs is what one steady-state dynamic round allocates on average
// (see TestRoundSteadyStateAllocs), measured when the guard was added.
const roundAllocs = 285

// TestRoundSteadyStateAllocs bounds the objects one dyn-pcie round
// allocates, averaged over 16 rounds on a SCALE-12 graph on PCIe: Apply of
// 64 WAL-first updates, RepairTree of the kept tree and one hybrid BFS.
// The batches are drawn before the count; what a round still allocates is
// the WAL record, the overlay's copy-on-write slot snapshots and the run's
// per-level statistics.
func TestRoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	list, err := generator.Generate(generator.Config{Scale: 12, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	src := edgelist.ListSource{List: list}
	root := freshRoot(t, list)
	clock := vtime.NewClock(0)
	ds, err := core.BuildDynamic(src, topo, core.ScenarioPCIeFlash, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	runner, err := ds.NewRunner(bfs.Config{Topology: topo, Mode: bfs.ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	st := bfs.NewTreeState(root, freshTree(t, src, ds.Part, topo, root))
	const rounds = 16
	us := dyn.NewUpdateStream(list, 0x26)
	var batches [][]dyn.Update
	var updates [][]bfs.EdgeUpdate
	for range rounds + 1 { // AllocsPerRun runs the round once more to warm up
		batch := us.Batch(64)
		eu := make([]bfs.EdgeUpdate, len(batch))
		for i, up := range batch {
			eu[i] = bfs.EdgeUpdate{U: up.U, V: up.V, Del: up.Del}
		}
		batches, updates = append(batches, batch), append(updates, eu)
	}
	next := 0
	round := func() {
		i := next
		next++
		if _, err := ds.Graph.Apply(clock, batches[i]); err != nil {
			t.Fatalf("round %d: apply: %v", i, err)
		}
		if _, err := bfs.RepairTree(st, updates[i], ds.Backward(), ds.Part, clock); err != nil {
			t.Fatalf("round %d: repair: %v", i, err)
		}
		if _, err := runner.Run(root); err != nil {
			t.Fatalf("round %d: bfs: %v", i, err)
		}
	}
	if allocs := testing.AllocsPerRun(rounds, round); allocs > roundAllocs {
		t.Errorf("a round allocates %.0f objects, guard %d", allocs, roundAllocs)
	}
}

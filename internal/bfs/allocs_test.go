package bfs

import (
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
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

// fullStackAllocs bounds a top-down-only run whose every adjacency comes
// through the full storage stack. The stack's read path allocates nothing
// (the guards in internal/nvm and internal/semiext), so what is left — 139
// objects here and 241 on the benchmark's td-ssd-stack when written — is
// per run, not per read: above all the CollectStacks / Stats() /
// MirrorStore.Health snapshots behind Result.Layers, Cache and Resilience,
// which ROADMAP item 2's typed counters retire (not chased here), then the
// engine's own handful. The parent allocated a page, a channel, a clock and
// a buffer per cache miss: 489 objects here, 7,790 on td-ssd-stack.
const fullStackAllocs = 256

func TestTopDownFullStackSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	fg, bg, _, part := buildTestGraphs(t, 10, 42, pinTopo)
	_, bwd := wrapDRAM(t, fg, bg)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(fg, mk, nil, pinStacks[1].opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	r, err := NewRunner(NVMForward{SF: sf}, bwd, part, pinConfig(ModeTopDownOnly, 1))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := pinRoots(bwd, int64(part.N))
	var misses int64
	run := func() {
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		misses += res.Cache.Misses
	}
	run()
	misses = 0
	if allocs := testing.AllocsPerRun(5, run); allocs > fullStackAllocs {
		t.Fatalf("a top-down run over the full stack allocates %.0f objects, want <= %d", allocs, fullStackAllocs)
	}
	if misses < 6*50 {
		t.Fatalf("%d cache misses in 6 runs: the runs did not churn the cache", misses)
	}
}

// repairAllocs bounds a steady-state RepairTree on a 64-update batch that
// orphans subtrees and reads NVM tails: the scanner it opens on the caller's
// clock (4 objects when written) is all that is left per call. Before the
// repair kept its depths and scratch in the TreeState it built four maps, a
// per-vertex children index and a depth array per call, and closures per
// scanned vertex: 1,151 objects here.
const repairAllocs = 16

func TestRepairTreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	_, _, list, part := buildTestGraphs(t, 12, 5, topo)
	rf := newDynRef(list)
	root := int64(0)
	for len(rf.adj[root]) == 0 {
		root++
	}
	before := rf.list()
	rng := uint64(0x5eed)
	batch := rf.toggle(&rng, 64)
	after := rf.list()
	// undo takes the graph back: the batch reversed, each update inverted.
	undo := make([]EdgeUpdate, len(batch))
	for i, up := range batch {
		undo[len(batch)-1-i] = EdgeUpdate{U: up.U, V: up.V, Del: !up.Del}
	}
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	tails := func(l *edgelist.List) BackwardAccess {
		_, bg := buildGraphsFromList(t, l, part)
		mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
		hb, err := semiext.BuildHybridBackward(bg, 4, mk, nil)
		if err != nil {
			t.Fatal(err)
		}
		return HybridBackwardAccess{HB: hb}
	}
	bwdBefore, bwdAfter := tails(before), tails(after)
	treeBefore := freshCanonicalTree(t, before, part, topo, root)
	treeAfter := freshCanonicalTree(t, after, part, topo, root)

	st := NewTreeState(root, treeBefore)
	clock := vtime.NewClock(0)
	var orphaned int64
	round := func() {
		for _, step := range []struct {
			ups  []EdgeUpdate
			bwd  BackwardAccess
			want []int64
		}{{batch, bwdAfter, treeAfter}, {undo, bwdBefore, treeBefore}} {
			stats, err := RepairTree(st, step.ups, step.bwd, part, clock)
			if err != nil {
				t.Fatal(err)
			}
			compareTrees(t, st.Parent, step.want, "repair")
			orphaned += stats.Orphaned
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round) / 2; allocs > repairAllocs {
		t.Fatalf("RepairTree allocates %.0f objects per steady-state call, want <= %d", allocs, repairAllocs)
	}
	if orphaned == 0 || clock.Now() == 0 {
		t.Fatalf("the repairs orphaned %d vertices and read NVM for %v: the guard did not reach the children index or the tails", orphaned, clock.Now())
	}
}

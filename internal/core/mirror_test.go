package core

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
)

var mirrorTopo = numa.Topology{Nodes: 2, CoresPerNode: 2}

// buildMirrored builds a PCIe-flash system with a mirrored forward array.
func buildMirrored(t *testing.T, list *edgelist.List, replicas int, scrubRate float64, cfg faults.Config, checksums bool) *System {
	t.Helper()
	sc := ScenarioPCIeFlash.WithReplicas(replicas, scrubRate)
	sc.Faults = cfg
	sc.Checksums = checksums
	sys, err := Build(edgelist.ListSource{List: list}, mirrorTopo, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func mirrorTestList(t *testing.T) *edgelist.List {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// TestMirrorSurvivesOneDeadReplica is the tentpole acceptance case: with
// two replicas and one device killed mid-run, the hybrid traversal
// completes without direction pinning, the tree validates, and the
// resilience report names the failovers and the dead replica.
func TestMirrorSurvivesOneDeadReplica(t *testing.T) {
	list := mirrorTestList(t)
	sys := buildMirrored(t, list, 2, 0,
		faults.Config{Seed: 7, DieAfterReads: 3, DieReplica: 1}, false)
	if len(sys.Devices) != 2 {
		t.Fatalf("built %d devices, want 2", len(sys.Devices))
	}
	r, err := sys.NewRunner(bfs.Config{
		Topology: mirrorTopo, Alpha: 4, Beta: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(2)
	if err != nil {
		t.Fatalf("run with one replica dying: %v", err)
	}
	if n := res.Resilience.DegradedLevels(); n != 0 {
		t.Fatalf("run degraded %d levels; failover should have hidden the death", n)
	}
	if res.Switches == 0 {
		t.Fatal("hybrid run never switched direction; the death pinned it")
	}
	if res.Layers.Get("mirror", "failovers") == 0 {
		t.Fatal("expected failovers > 0")
	}
	devs := res.Resilience.Devices
	if len(devs) != 2 {
		t.Fatalf("reported %d devices, want 2", len(devs))
	}
	if devs[0].State != nvm.ReplicaDead {
		t.Fatalf("device 0 state = %v, want dead", devs[0].State)
	}
	if devs[1].State == nvm.ReplicaDead {
		t.Fatalf("device 1 state = %v; only replica 0 was killed", devs[1].State)
	}
	if res.Resilience.DeadDevices() != 1 {
		t.Fatalf("DeadDevices = %d, want 1", res.Resilience.DeadDevices())
	}
	rep, err := validate.Run(res.Tree, 2, edgelist.ListSource{List: list})
	if err != nil {
		t.Fatalf("tree after failover is invalid: %v", err)
	}
	if rep.Visited != res.Visited {
		t.Fatalf("visited %d, validator says %d", res.Visited, rep.Visited)
	}
}

// TestMirrorAllReplicasDeadDegrades checks the last line of defense: when
// every replica dies, the PR 1 degraded mode still engages and the run
// completes on the DRAM-resident backward graph.
func TestMirrorAllReplicasDeadDegrades(t *testing.T) {
	list := mirrorTestList(t)
	// DieReplica 0 kills every store: correlated loss of the whole array.
	sys := buildMirrored(t, list, 2, 0,
		faults.Config{Seed: 7, DieAfterReads: 3}, false)
	r, err := sys.NewRunner(bfs.Config{
		Topology: mirrorTopo, Alpha: 4, Beta: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(2)
	if err != nil {
		t.Fatalf("run with all replicas dying: %v", err)
	}
	if res.Resilience.DegradedLevels() == 0 {
		t.Fatal("all replicas dead but the run never degraded")
	}
	if res.Resilience.DeadDevices() != 2 {
		t.Fatalf("DeadDevices = %d, want 2", res.Resilience.DeadDevices())
	}
	rep, err := validate.Run(res.Tree, 2, edgelist.ListSource{List: list})
	if err != nil {
		t.Fatalf("degraded run produced an invalid tree: %v", err)
	}
	if rep.Visited != res.Visited {
		t.Fatalf("visited %d, validator says %d", res.Visited, rep.Visited)
	}
}

// TestDegradedModeOnDisconnectedGraph kills the (only) device while the
// graph has a second, unreachable component: the degraded bottom-up levels
// must not claim unreachable vertices, and the tree must still validate.
func TestDegradedModeOnDisconnectedGraph(t *testing.T) {
	// Component A: a chain 0-1-2-3-4 plus chords; component B: a separate
	// triangle 5-6-7 no edge reaches.
	list := &edgelist.List{NumVertices: 8, Edges: []edgelist.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 0, V: 2}, {U: 1, V: 3},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 5, V: 7},
	}}
	sys := buildMirrored(t, list, 1, 0,
		faults.Config{Seed: 3, DieAfterReads: 2}, false)
	r, err := sys.NewRunner(bfs.Config{
		Topology: mirrorTopo, Alpha: 1, Beta: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(0)
	if err != nil {
		t.Fatalf("degraded run on disconnected graph: %v", err)
	}
	if res.Resilience.DegradedLevels() == 0 {
		t.Fatal("device died but the run never degraded")
	}
	if res.Visited != 5 {
		t.Fatalf("visited %d vertices, want 5 (component A only)", res.Visited)
	}
	for _, v := range []int64{5, 6, 7} {
		if res.Tree[v] != -1 {
			t.Fatalf("unreachable vertex %d claimed parent %d", v, res.Tree[v])
		}
	}
	if _, err := validate.Run(res.Tree, 0, edgelist.ListSource{List: list}); err != nil {
		t.Fatalf("degraded disconnected tree is invalid: %v", err)
	}
}

// TestMirrorScrubRepairsDeterministically runs the full stack — seeded
// bit-flip corruption under per-replica checksums, background scrubbing —
// twice and requires identical repair activity and identical trees.
func TestMirrorScrubRepairsDeterministically(t *testing.T) {
	run := func() *bfs.Result {
		list := mirrorTestList(t)
		sys := buildMirrored(t, list, 2, 50000,
			faults.Config{Seed: 11, CorruptRate: 0.01}, true)
		r, err := sys.NewRunner(bfs.Config{
			Topology: mirrorTopo, Alpha: 4, Beta: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		res.Tree = res.CloneTree()
		return res
	}
	a := run()
	ma, _ := a.Layers.Layer("mirror")
	if ma.Get("scrubbed_blocks") == 0 {
		t.Fatal("scrubber never ran; raise the scrub rate")
	}
	if ma.Get("repaired_blocks") == 0 {
		t.Fatal("no blocks repaired; raise the corrupt rate")
	}
	b := run()
	if a.Time != b.Time {
		t.Errorf("virtual time %v vs %v across identical runs", a.Time, b.Time)
	}
	mb, _ := b.Layers.Layer("mirror")
	for _, c := range []string{"scrubbed_blocks", "repaired_blocks", "repair_ns", "failovers"} {
		if ma.Get(c) != mb.Get(c) {
			t.Errorf("scrub/repair activity differs:\n%+v\n%+v", ma, mb)
			break
		}
	}
	for v := range a.Tree {
		if a.Tree[v] != b.Tree[v] {
			t.Fatalf("trees diverge at vertex %d", v)
		}
	}
}

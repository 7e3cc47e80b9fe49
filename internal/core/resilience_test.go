package core

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/validate"
)

// runFaulted builds a fresh faulted system and runs BFS from the given
// roots.
func runFaulted(t *testing.T, cfg faults.Config, checksums bool, roots []int64) []*bfs.Result {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sc := ScenarioPCIeFlash
	sc.Faults = cfg
	sc.Checksums = checksums
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	sys, err := Build(edgelist.ListSource{List: list}, topo, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, err := sys.NewRunner(bfs.Config{
		Topology: topo, Alpha: 4, Beta: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*bfs.Result
	for _, root := range roots {
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		res.Tree = res.CloneTree()
		out = append(out, res)
	}
	return out
}

func TestFaultScenarioIsDeterministic(t *testing.T) {
	cfg := faults.Config{
		Seed:            1234,
		TransientRate:   0.05,
		SpikeRate:       0.02,
		SpikeMultiplier: 8,
		CorruptRate:     0.01,
	}
	roots := []int64{2, 77, 500}
	a := runFaulted(t, cfg, true, roots)
	b := runFaulted(t, cfg, true, roots)
	for i := range roots {
		ra, rb := a[i], b[i]
		if ra.Time != rb.Time {
			t.Errorf("root %d: virtual time %v vs %v", roots[i], ra.Time, rb.Time)
		}
		qa, _ := ra.Layers.Layer("retry")
		qb, _ := rb.Layers.Layer("retry")
		for _, c := range []string{"retries", "read_errors", "backoff_ns"} {
			if qa.Get(c) != qb.Get(c) {
				t.Errorf("root %d: retry layer %+v vs %+v", roots[i], qa, qb)
				break
			}
		}
		if qa.Get("read_errors") == 0 && i == 0 {
			t.Log("note: no faults fired for the first root (rates may be too low for this instance)")
		}
		for v := range ra.Tree {
			if ra.Tree[v] != rb.Tree[v] {
				t.Fatalf("root %d: trees diverge at vertex %d (%d vs %d)",
					roots[i], v, ra.Tree[v], rb.Tree[v])
			}
		}
	}
	// The scenario must actually have exercised the fault machinery
	// somewhere, or this test proves nothing.
	var total int64
	for _, r := range a {
		total += r.Layers.Get("retry", "read_errors")
	}
	if total == 0 {
		t.Fatal("no read errors across all roots; raise the rates")
	}
}

func TestFaultedRunsStillValidate(t *testing.T) {
	cfg := faults.Config{Seed: 5, TransientRate: 0.02, CorruptRate: 0.005}
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sc := ScenarioPCIeFlash
	sc.Faults = cfg
	sc.Checksums = true
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	sys, err := Build(edgelist.ListSource{List: list}, topo, sc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r, err := sys.NewRunner(bfs.Config{Topology: topo, Alpha: 4, Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(2)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	rep, err := validate.Run(res.Tree, 2, edgelist.ListSource{List: list})
	if err != nil {
		t.Fatalf("faulted run produced an invalid tree: %v", err)
	}
	if rep.Visited != res.Visited {
		t.Fatalf("visited %d, validator says %d", res.Visited, rep.Visited)
	}
}

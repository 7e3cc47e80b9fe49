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

// treesFor builds a system under sc and returns the parent tree of each
// root. The top-down kernel keeps the minimum parent offered, so the trees
// do not depend on the order workers claim in.
//
// Every permutation also runs the vp BFS program over the same system and
// requires its parent tree to be bit-identical to bfs.Runner's — the
// vertex-program framework's correctness anchor.
func treesFor(t *testing.T, sc Scenario, roots []int64) [][]int64 {
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
	defer sys.Close()
	cfg := bfs.Config{Topology: topo, Alpha: 4, Beta: 40}
	r, err := sys.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := vp.NewBFS()
	eng, err := vp.NewEngine(sys.Forward, sys.Backward, sys.Part, prog, vp.Config{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var trees [][]int64
	for _, root := range roots {
		res, err := r.Run(root)
		if err != nil {
			t.Fatalf("scenario %s root %d: %v", sc.Name, root, err)
		}
		tree := res.CloneTree()
		if _, err := eng.Run(root); err != nil {
			t.Fatalf("scenario %s root %d: vp engine: %v", sc.Name, root, err)
		}
		for v, p := range prog.Tree() {
			if p != tree[v] {
				t.Fatalf("scenario %s root %d: vp tree[%d] = %d, runner has %d",
					sc.Name, root, v, p, tree[v])
			}
		}
		trees = append(trees, tree)
	}
	return trees
}

// diffTrees fails the test at the first vertex where got diverges from
// want.
func diffTrees(t *testing.T, label string, roots []int64, got, want [][]int64) {
	t.Helper()
	for i := range roots {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s root %d: tree length %d, want %d",
				label, roots[i], len(got[i]), len(want[i]))
		}
		for v := range want[i] {
			if got[i][v] != want[i][v] {
				t.Fatalf("%s root %d: tree diverges from reference at vertex %d (%d vs %d)",
					label, roots[i], v, got[i][v], want[i][v])
			}
		}
	}
}

// TestStackLayersDoNotChangeParentTrees is the refactor's equivalence
// criterion: the storage stack is a performance and resilience concern
// only, so at a fixed seed the parent trees must be identical whether the
// graphs live in DRAM, behind a bare NVM stack, behind the full stack
// (checksums, mirroring, page cache, partial backward offload), or under
// injected recoverable faults.
func TestStackLayersDoNotChangeParentTrees(t *testing.T) {
	roots := []int64{2, 77, 500}

	full := ScenarioPCIeFlash
	full.Name = "full-stack"
	full.Checksums = true
	full.Replicas = 2
	full.CacheBytes = 1 << 20
	full.BackwardDRAMEdgeLimit = 4

	faulted := full
	faulted.Name = "full-stack-faulted"
	faulted.Faults = faults.Config{
		Seed:          1234,
		TransientRate: 0.05,
		CorruptRate:   0.01,
	}

	want := treesFor(t, ScenarioDRAMOnly, roots)
	for _, sc := range []Scenario{ScenarioPCIeFlash, full, faulted} {
		got := treesFor(t, sc, roots)
		diffTrees(t, sc.Name, roots, got, want)
	}
}

// TestCompressedAsyncParentTreeEquivalence is the compressed-adjacency
// and async-pipeline equivalence criterion: delta+varint encoding,
// queue-depth, and frontier prefetch change only when and how bytes
// move, never which parent wins. The parent trees must be bit-identical
// to the DRAM-only reference across raw vs compressed storage, queue
// depths 0 (synchronous) and 8 (async coalescing + prefetch), and
// worker counts 1, 2, and 8 — the top-down kernel's atomic-minimum
// claim rule makes the tree independent of claim timing.
func TestCompressedAsyncParentTreeEquivalence(t *testing.T) {
	roots := []int64{2, 77, 500}
	want := treesFor(t, ScenarioDRAMOnly, roots)

	for _, compress := range []bool{false, true} {
		for _, qd := range []int{0, 8} {
			sc := ScenarioSSD
			sc.CacheBytes = 1 << 20
			pf := 0
			if qd > 0 {
				pf = 16
			}
			sc = sc.WithIO(compress, qd, pf)
			sc.Name = "ssd"
			if compress {
				sc.Name += "+compress"
			}
			if qd > 0 {
				sc.Name += "+async"
			}
			diffTrees(t, sc.Name, roots, treesFor(t, sc, roots), want)
		}
	}
}

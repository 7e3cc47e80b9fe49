package core

import (
	"fmt"
	"testing"

	"semibfs/internal/cluster"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
)

// clusterTrees builds a fresh 1D cluster or 2D grid over the harness
// graph (the same Scale 10 / EdgeFactor 8 / Seed 7 list treesFor uses)
// and returns the parent tree of every root.
func clusterTrees(t *testing.T, grid bool, cfg cluster.Config, roots []int64) [][]int64 {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	var (
		run  func(int64) (*cluster.Result, error)
		done func() error
	)
	if grid {
		g, err := cluster.BuildGrid(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, done = g.Run, g.Close
	} else {
		c, err := cluster.Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, done = c.Run, c.Close
	}
	defer func() {
		if err := done(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	var trees [][]int64
	for _, root := range roots {
		res, err := run(root)
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		trees = append(trees, append([]int64(nil), res.Tree...))
	}
	return trees
}

// TestCrossTopologyTreeEquivalence is the unification's acceptance
// matrix: the same graph traversed from the same roots must yield
// bit-identical parent trees whether it runs on a single node (DRAM or
// the full storage stack), a 1D cluster, or a 2D grid — raw or
// compressed adjacency, healthy or with one node's
// replica dying mid-run. All four engines share the alpha/beta switch
// rule on the global frontier count, the min-parent top-down claim, and
// the hubs-first bottom-up scan order, so the tree is a pure function
// of (graph, root) and the oracle is the single-node DRAM reference
// from the stack-equivalence harness.
func TestCrossTopologyTreeEquivalence(t *testing.T) {
	roots := []int64{2, 77, 500}
	want := treesFor(t, ScenarioDRAMOnly, roots)

	// Single node behind the full stack — checksums, mirroring, page
	// cache, async pipeline — raw and compressed.
	for _, compress := range []bool{false, true} {
		sc := ScenarioPCIeFlash
		sc.Name = fmt.Sprintf("single-stack/compress=%v", compress)
		sc.Checksums = true
		sc.Replicas = 2
		sc.CacheBytes = 1 << 20
		sc = sc.WithIO(compress, 4, 8)
		diffTrees(t, sc.Name, roots, treesFor(t, sc, roots), want)
	}

	// Distributed cells: every machine carries the full per-node stack.
	for _, topo := range []string{"1d", "2d"} {
		for _, compress := range []bool{false, true} {
			for _, faulted := range []bool{false, true} {
				cfg := cluster.Config{
					Machines: 4, Alpha: 4, Beta: 40,
					ForwardOnNVM: true,
					Compress:     compress,
					Checksums:    true,
					Replicas:     2,
					CacheBytes:   1 << 20,
					QueueDepth:   4,
				}
				if faulted {
					// Machine 2's primary replica dies a few media
					// reads in (the page cache absorbs most, so the
					// budget is small); the mirror layer fails over
					// to the idle second replica without surfacing
					// an error.
					cfg.Faults = faults.Config{Seed: 99, DieAfterReads: 5, DieReplica: 1}
					cfg.FaultMachine = 2
				}
				label := fmt.Sprintf("%s/compress=%v/faulted=%v", topo, compress, faulted)
				got := clusterTrees(t, topo == "2d", cfg, roots)
				diffTrees(t, label, roots, got, want)
			}
		}
	}
}

// TestGridDegradedTreeEquivalence covers the one-node-dead corner of
// the matrix: with a single replica there is nothing to fail over to,
// so the node's death is unrescuable and the grid pins itself to its
// DRAM-resident state (degraded mode) instead of aborting — and the
// parent trees must still be bit-identical to the single-node DRAM
// reference.
func TestGridDegradedTreeEquivalence(t *testing.T) {
	roots := []int64{2, 77, 500}
	want := treesFor(t, ScenarioDRAMOnly, roots)
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	for _, compress := range []bool{false, true} {
		g, err := cluster.BuildGrid(src, cluster.Config{
			Machines: 4, Alpha: 4, Beta: 40,
			ForwardOnNVM: true, Compress: compress, Checksums: true,
			Faults:       faults.Config{Seed: 7, DieAfterReads: 25},
			FaultMachine: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		degraded := false
		var got [][]int64
		for _, root := range roots {
			res, err := g.Run(root)
			if err != nil {
				t.Fatalf("compress=%v root %d: %v", compress, root, err)
			}
			if res.Degraded {
				degraded = true
				found := false
				for _, k := range res.DeadMachines {
					if k == 2 { // FaultMachine is 1-based
						found = true
					}
				}
				if !found {
					t.Fatalf("compress=%v root %d: dead machines %v, want machine 2",
						compress, root, res.DeadMachines)
				}
			}
			got = append(got, append([]int64(nil), res.Tree...))
		}
		if !degraded {
			t.Fatalf("compress=%v: no run degraded despite unrescuable death", compress)
		}
		diffTrees(t, fmt.Sprintf("degraded/compress=%v", compress), roots, got, want)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

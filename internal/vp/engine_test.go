package vp_test

import (
	"fmt"
	"math"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vp"
)

var testTopo = numa.Topology{Nodes: 2, CoresPerNode: 2}

// buildDRAM constructs DRAM forward/backward accesses for a Kronecker
// instance, flowing the backward graph through HybridBackward with limit 0
// as core.Build does.
func buildDRAM(t *testing.T, scale int, seed uint64) (bfs.ForwardAccess, bfs.BackwardAccess, *edgelist.List, *numa.Partition) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(testTopo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatalf("build forward: %v", err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatalf("build backward: %v", err)
	}
	hb, err := semiext.BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		t.Fatalf("hybrid backward: %v", err)
	}
	return bfs.DRAMForward{G: fg}, bfs.HybridBackwardAccess{HB: hb}, list, part
}

func vpConfig(workers int, mode bfs.Mode) vp.Config {
	return vp.Config{Config: bfs.Config{
		Topology: testTopo, Alpha: 4, Beta: 40, Mode: mode, RealWorkers: workers,
	}}
}

// TestBFSMatchesRunner is the framework's correctness anchor: the vp BFS
// program must produce bit-identical parent trees to bfs.Runner for every
// mode and worker count, and — the two engines run the same top-down sweep and
// the same bottom-up scan order — the same per-level claim, examined-edge and
// frontier-degree counts, over a DRAM and over an NVM forward graph. Only the
// virtual time differs, by the documented Finalize charge.
func TestBFSMatchesRunner(t *testing.T) {
	dram, bwd, _, part := buildDRAM(t, 10, 7)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(dram.(bfs.DRAMForward).G, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	roots := []int64{0, 3, 101, 777}
	for _, fwd := range []bfs.ForwardAccess{dram, bfs.NVMForward{SF: sf}} {
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly, bfs.ModeBottomUpOnly} {
			runner, err := bfs.NewRunner(fwd, bwd, part, bfs.Config{
				Topology: testTopo, Alpha: 4, Beta: 40, Mode: mode, RealWorkers: 1,
			})
			if err != nil {
				t.Fatalf("runner: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				prog := vp.NewBFS()
				eng, err := vp.NewEngine(fwd, bwd, part, prog, vpConfig(workers, mode))
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				for _, root := range roots {
					tag := fmt.Sprintf("NVM %v mode %v workers %d root %d", fwd.OnNVM(), mode, workers, root)
					want, err := runner.Run(root)
					if err != nil {
						t.Fatalf("%s: runner: %v", tag, err)
					}
					wantTree := want.CloneTree()
					got, err := eng.Run(root)
					if err != nil {
						t.Fatalf("%s: engine: %v", tag, err)
					}
					for v, p := range prog.Tree() {
						if p != wantTree[v] {
							t.Fatalf("%s: tree[%d] = %d, runner has %d", tag, v, p, wantTree[v])
						}
					}
					if got.Claimed+1 != want.Visited {
						t.Errorf("%s: claimed %d+root, runner visited %d", tag, got.Claimed, want.Visited)
					}
					if len(got.Levels) != len(want.Levels) {
						t.Fatalf("%s: %d levels, runner has %d", tag, len(got.Levels), len(want.Levels))
					}
					for i, g := range got.Levels {
						w := want.Levels[i]
						if g.Direction != w.Direction || g.Claimed != w.Claimed || g.FrontierDegree != w.FrontierDegree ||
							g.ExaminedDRAM != w.ExaminedDRAM || g.ExaminedNVM != w.ExaminedNVM {
							t.Errorf("%s level %d: {%v claimed %d degree %d examined %d+%d}, runner {%v %d %d %d+%d}", tag, i,
								g.Direction, g.Claimed, g.FrontierDegree, g.ExaminedDRAM, g.ExaminedNVM,
								w.Direction, w.Claimed, w.FrontierDegree, w.ExaminedDRAM, w.ExaminedNVM)
						}
					}
				}
			}
		}
	}
}

// oracleMinLabels computes each vertex's component min-ID with union-find
// over the raw edge list — the equivalence oracle for label propagation.
func oracleMinLabels(list *edgelist.List) []int64 {
	n := list.NumVertices
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	var find func(x int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range list.Edges {
		if e.U == e.V {
			continue
		}
		ra, rb := find(e.U), find(e.V)
		if ra != rb {
			parent[rb] = ra
		}
	}
	minLabel := make([]int64, n)
	for i := range minLabel {
		minLabel[i] = int64(n)
	}
	for v := int64(0); v < n; v++ {
		r := find(v)
		if v < minLabel[r] {
			minLabel[r] = v
		}
	}
	out := make([]int64, n)
	for v := int64(0); v < n; v++ {
		out[v] = minLabel[find(v)]
	}
	return out
}

// TestComponentsMatchesUnionFind checks label propagation against the
// union-find oracle and that the level structure is worker-independent.
func TestComponentsMatchesUnionFind(t *testing.T) {
	fwd, bwd, list, part := buildDRAM(t, 10, 11)
	want := oracleMinLabels(list)
	var refLevels []bfs.LevelStats
	for _, workers := range []int{1, 2, 8} {
		prog := vp.NewComponents()
		eng, err := vp.NewEngine(fwd, bwd, part, prog, vpConfig(workers, bfs.ModeHybrid))
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		res, err := eng.Run(0)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		for v, l := range prog.Labels() {
			if l != want[v] {
				t.Fatalf("workers %d: label[%d] = %d, oracle has %d", workers, v, l, want[v])
			}
		}
		if workers == 1 {
			refLevels = res.Levels
			// The dense start must pull and the sparse endgame must push,
			// or the direction machinery isn't exercised.
			if res.Levels[0].Direction != bfs.BottomUp {
				t.Errorf("level 0 ran %v, want bottom-up (dense hint)", res.Levels[0].Direction)
			}
			sawPush := false
			for _, ls := range res.Levels {
				if ls.Direction == bfs.TopDown {
					sawPush = true
				}
			}
			if !sawPush {
				t.Errorf("no push level in %d levels; endgame never switched", len(res.Levels))
			}
			continue
		}
		if len(res.Levels) != len(refLevels) {
			t.Fatalf("workers %d: %d levels, single-worker run had %d",
				workers, len(res.Levels), len(refLevels))
		}
		for i, ls := range res.Levels {
			if ls.Claimed != refLevels[i].Claimed || ls.Direction != refLevels[i].Direction {
				t.Errorf("workers %d level %d: (%v, claimed %d) vs single-worker (%v, %d)",
					workers, i, ls.Direction, ls.Claimed, refLevels[i].Direction, refLevels[i].Claimed)
			}
		}
	}
}

// referencePageRank runs the textbook power iteration over the same
// adjacency the engine scans (via the backward access), with the same
// damping, dangling redistribution, and stopping rule.
func referencePageRank(t *testing.T, bwd bfs.BackwardAccess, part *numa.Partition, n int64, opts vp.PageRankOptions) ([]float64, int) {
	t.Helper()
	opts = opts.WithDefaults()
	scan := bwd.NewScanner(nil)
	adj := make([][]int64, n)
	deg := make([]int64, n)
	for v := int64(0); v < n; v++ {
		deg[v] = bwd.Degree(v)
		_, _, err := scan.Scan(part.NodeOf(int(v)), v, func(nb int64) bool {
			adj[v] = append(adj[v], nb)
			return true
		})
		if err != nil {
			t.Fatalf("scan %d: %v", v, err)
		}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	iters := 0
	for {
		var dmass float64
		for v := int64(0); v < n; v++ {
			if deg[v] == 0 {
				dmass += rank[v]
			}
		}
		var delta float64
		for v := int64(0); v < n; v++ {
			var sum float64
			for _, nb := range adj[v] {
				sum += rank[nb] / float64(deg[nb])
			}
			next[v] = (1-opts.Damping)/float64(n) + opts.Damping*(dmass/float64(n)+sum)
			delta += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		iters++
		if delta <= opts.Tol || iters >= opts.MaxIters {
			return rank, iters
		}
	}
}

// TestPageRankMatchesReference validates the pull-mode sweeps against a
// sequential DRAM reference, checks mass conservation, and requires
// bit-identical ranks across worker counts.
func TestPageRankMatchesReference(t *testing.T) {
	fwd, bwd, list, part := buildDRAM(t, 9, 23)
	n := list.NumVertices
	opts := vp.PageRankOptions{Tol: 1e-8}
	deg := make([]int64, n)
	for v := int64(0); v < n; v++ {
		deg[v] = bwd.Degree(v)
	}
	wantRank, wantIters := referencePageRank(t, bwd, part, n, opts)

	var ranks1 []float64
	for _, workers := range []int{1, 8} {
		prog := vp.NewPageRank(deg, opts)
		eng, err := vp.NewEngine(fwd, bwd, part, prog, vpConfig(workers, bfs.ModeHybrid))
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		res, err := eng.Run(0)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !res.Converged {
			t.Fatalf("workers %d: did not converge in %d iters (delta %g)",
				workers, prog.Iterations(), prog.Delta())
		}
		if prog.Iterations() != wantIters {
			t.Errorf("workers %d: %d iterations, reference took %d", workers, prog.Iterations(), wantIters)
		}
		var sum float64
		for _, r := range prog.Ranks() {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workers %d: ranks sum to %g, want 1", workers, sum)
		}
		for v, r := range prog.Ranks() {
			if math.Abs(r-wantRank[v]) > 1e-10 {
				t.Fatalf("workers %d: rank[%d] = %g, reference %g", workers, v, r, wantRank[v])
			}
		}
		if workers == 1 {
			ranks1 = append([]float64(nil), prog.Ranks()...)
			continue
		}
		for v, r := range prog.Ranks() {
			if r != ranks1[v] {
				t.Fatalf("rank[%d] = %v with 8 workers, %v with 1 — not bit-identical", v, r, ranks1[v])
			}
		}
	}
	// Every sweep must be a pull sweep: the program is pull-only.
	prog := vp.NewPageRank(deg, opts)
	eng, err := vp.NewEngine(fwd, bwd, part, prog, vpConfig(2, bfs.ModeHybrid))
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	res, err := eng.Run(0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, ls := range res.Levels {
		if ls.Direction != bfs.BottomUp {
			t.Fatalf("level %d ran %v; pull-only program must never push", ls.Level, ls.Direction)
		}
	}
}

// TestEngineRejectsImpossibleModes checks mode/capability validation.
func TestEngineRejectsImpossibleModes(t *testing.T) {
	fwd, bwd, list, part := buildDRAM(t, 8, 5)
	deg := make([]int64, list.NumVertices)
	for v := range deg {
		deg[v] = bwd.Degree(int64(v))
	}
	if _, err := vp.NewEngine(fwd, bwd, part, vp.NewPageRank(deg, vp.PageRankOptions{}),
		vpConfig(1, bfs.ModeTopDownOnly)); err == nil {
		t.Fatal("pull-only program accepted top-down-only mode")
	}
	if _, err := vp.NewEngine(fwd, bwd, part, vp.NewBFS(), vpConfig(1, bfs.ModeHybrid)); err != nil {
		t.Fatalf("bfs engine: %v", err)
	}
}

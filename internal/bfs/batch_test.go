package bfs

import (
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
)

// pickRoots returns count distinct roots with nonzero degree.
func pickRoots(t *testing.T, deg func(int64) int64, n, count int64) []int64 {
	t.Helper()
	var roots []int64
	for v := int64(0); v < n && int64(len(roots)) < count; v++ {
		if deg(v) > 0 {
			roots = append(roots, v)
		}
	}
	if int64(len(roots)) < count {
		t.Skipf("graph has only %d usable roots, want %d", len(roots), count)
	}
	return roots
}

func TestBatchMatchesSerialBFS(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 10, 1, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 7)
	roots = append(roots, roots[0]) // duplicate root in its own lane
	for _, mode := range []Mode{ModeHybrid, ModeTopDownOnly, ModeBottomUpOnly} {
		br, err := NewBatchRunner(fwd, bwd, part, len(roots), Config{Topology: topo, Mode: mode, Alpha: 16, Beta: 160})
		if err != nil {
			t.Fatalf("%v: new batch runner: %v", mode, err)
		}
		res, err := br.RunBatch(roots)
		if err != nil {
			t.Fatalf("%v: run batch: %v", mode, err)
		}
		for l, root := range roots {
			checkAgainstSerial(t, res.Trees[l], list, root)
			rep, err := validate.Run(res.Trees[l], root, edgelist.ListSource{List: list})
			if err != nil {
				t.Fatalf("%v lane %d root %d: validate: %v", mode, l, root, err)
			}
			if rep.Visited != res.Visited[l] {
				t.Fatalf("%v lane %d: visited %d, validator says %d",
					mode, l, res.Visited[l], rep.Visited)
			}
		}
	}
}

// TestBatchWidthOneMatchesSingleSource pins the degenerate case: a 1-lane
// batch must produce exactly the level structure of the single-source
// Runner, including the same direction schedule (the scaled alpha/beta rule
// collapses to the single-source rule at B = 1) and, the two running the same
// top-down sweep and bottom-up scan order, the same examined-edge counts.
func TestBatchWidthOneMatchesSingleSource(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 10, 2, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	cfg := Config{Topology: topo, Alpha: 64, Beta: 640}
	root := pickRoots(t, bg.Degree, list.NumVertices, 1)[0]

	single, err := NewRunner(fwd, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchRunner(fwd, bwd, part, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := br.RunBatch([]int64{root})
	if err != nil {
		t.Fatal(err)
	}
	if bres.Visited[0] != sres.Visited {
		t.Fatalf("visited: batch %d, single %d", bres.Visited[0], sres.Visited)
	}
	if len(bres.Levels) != len(sres.Levels) {
		t.Fatalf("levels: batch %d, single %d", len(bres.Levels), len(sres.Levels))
	}
	for i := range bres.Levels {
		b, s := bres.Levels[i], sres.Levels[i]
		if b.Direction != s.Direction || b.Frontier != s.Frontier || b.Claimed != s.Claimed ||
			b.ExaminedDRAM != s.ExaminedDRAM || b.ExaminedNVM != s.ExaminedNVM {
			t.Fatalf("level %d: batch {%v f=%d c=%d examined %d+%d}, single {%v f=%d c=%d examined %d+%d}",
				i, b.Direction, b.Frontier, b.Claimed, b.ExaminedDRAM, b.ExaminedNVM,
				s.Direction, s.Frontier, s.Claimed, s.ExaminedDRAM, s.ExaminedNVM)
		}
	}
	want, err := validate.Levels(sres.Tree, root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := validate.Levels(bres.Trees[0], root)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d: batch level %d, single level %d", v, got[v], want[v])
		}
	}
}

func TestBatchOverNVMForwardMatchesDRAM(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 3, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	_, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 6)
	cfg := Config{Topology: topo, Alpha: 32, Beta: 320}

	dr, err := NewBatchRunner(DRAMForward{G: fg}, bwd, part, len(roots), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dr.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	aVisited := append([]int64(nil), a.Visited...)
	nr, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, len(roots), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nr.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	for l, root := range roots {
		checkAgainstSerial(t, b.Trees[l], list, root)
		if b.Visited[l] != aVisited[l] {
			t.Fatalf("lane %d: visited NVM %d, DRAM %d", l, b.Visited[l], aVisited[l])
		}
	}
	if b.Time <= a.Time {
		t.Errorf("NVM batch (%v) should be slower than DRAM batch (%v)", b.Time, a.Time)
	}
	if b.ExaminedNVM == 0 {
		t.Error("NVM batch examined no NVM edges")
	}
}

// TestBatchRunIsDeterministic extends the engine's determinism invariant
// to the batched runner: virtual time AND every lane's parent tree must be
// identical across RealWorkers counts.
func TestBatchRunIsDeterministic(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 9, 7, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 5)
	var refTime int64
	var refTrees [][]int64
	for _, rw := range []int{1, 2, 8} {
		br, err := NewBatchRunner(fwd, bwd, part, len(roots), Config{
			Topology: topo, Alpha: 32, Beta: 320, RealWorkers: rw,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := br.RunBatch(roots)
		if err != nil {
			t.Fatal(err)
		}
		if refTrees == nil {
			refTime = int64(res.Time)
			refTrees = make([][]int64, len(roots))
			for l := range roots {
				refTrees[l] = res.CloneTree(l)
			}
			continue
		}
		if int64(res.Time) != refTime {
			t.Fatalf("RealWorkers=%d: virtual time %d, want %d", rw, res.Time, refTime)
		}
		for l := range roots {
			for v, p := range res.Trees[l] {
				if refTrees[l][v] != p {
					t.Fatalf("RealWorkers=%d lane %d vertex %d: parent %d, want %d",
						rw, l, v, p, refTrees[l][v])
				}
			}
		}
	}
	_ = list
}

// TestBatchRaceStress is the CI race job's batched stress case: 8 real
// workers driving a full 64-lane batch. Run with -race it exercises the
// scatter phase's concurrent lane claims.
func TestBatchRaceStress(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 9, 13, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 64)
	br, err := NewBatchRunner(fwd, bwd, part, 64, Config{
		Topology: topo, Alpha: 32, Beta: 320, RealWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := br.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	for l, root := range roots {
		if _, err := validate.Run(res.Trees[l], root, edgelist.ListSource{List: list}); err != nil {
			t.Fatalf("lane %d root %d: %v", l, root, err)
		}
	}
}

func TestBatchRejectsBadInput(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, _, part := buildTestGraphs(t, 6, 1, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	if _, err := NewBatchRunner(fwd, bwd, part, 0, Config{Topology: topo}); err == nil {
		t.Error("zero-lane runner accepted")
	}
	if _, err := NewBatchRunner(fwd, bwd, part, 65, Config{Topology: topo}); err == nil {
		t.Error("65-lane runner accepted")
	}
	br, err := NewBatchRunner(fwd, bwd, part, 4, Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.RunBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := br.RunBatch([]int64{0, 1, 2, 3, 4}); err == nil {
		t.Error("over-wide batch accepted")
	}
	if _, err := br.RunBatch([]int64{-1}); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := br.RunBatch([]int64{1 << 20}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

// TestBatchFrontierPrefetch: a batch over a cached NVM forward graph honours
// FrontierPrefetch like a single-source run does — the scatter announces each
// worker's next chunk — once the frontier spans more chunks than a node has
// cores. The trees do not depend on it.
func TestBatchFrontierPrefetch(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 10, 42, topo)
	_, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 16)
	run := func(frontierPrefetch int) (*BatchResult, [][]int64) {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
		sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{
			CacheBytes: 16 << 10, FrontierPrefetch: frontierPrefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		br, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, len(roots), Config{
			Topology: topo, Mode: ModeTopDownOnly, RealWorkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := br.RunBatch(roots)
		if err != nil {
			t.Fatal(err)
		}
		widest := int64(0)
		for _, ls := range res.Levels {
			widest = max(widest, ls.Frontier)
		}
		// Frontiers are counted in lane-bits, at most one per lane per
		// vertex: this many bits need more vertices than the chunks a node's
		// workers take in one round, so some worker has a next chunk.
		if widest <= int64(len(roots)*topo.CoresPerNode*ChunkSize) {
			t.Fatalf("widest frontier %d lane-bits; the batch never outgrew one chunk per worker", widest)
		}
		trees := make([][]int64, len(roots))
		for l := range trees {
			trees[l] = res.CloneTree(l)
		}
		return res, trees
	}
	off, offTrees := run(0)
	on, onTrees := run(8)
	if a, b := on.Layers.Get("cache", "prefetches"), off.Layers.Get("cache", "prefetches"); a <= b {
		t.Errorf("cache prefetches: %d with FrontierPrefetch 8, %d with 0; the batch ignored the option", a, b)
	}
	for l := range roots {
		for v := range onTrees[l] {
			if onTrees[l][v] != offTrees[l][v] {
				t.Fatalf("lane %d: tree[%d] = %d with prefetch, %d without", l, v, onTrees[l][v], offTrees[l][v])
			}
		}
	}
}

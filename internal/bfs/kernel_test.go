package bfs

import (
	"testing"
	"testing/quick"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

func TestLevelStatsInvariants(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, _, part := buildTestGraphs(t, 11, 23, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 100, Beta: 1000})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no levels")
	}
	var claimed, examined int64
	prevEnd := vtime.Duration(0)
	for i, l := range res.Levels {
		if l.Level != i {
			t.Fatalf("level %d numbered %d", i, l.Level)
		}
		if l.Frontier <= 0 {
			t.Fatalf("level %d: frontier %d", i, l.Frontier)
		}
		if l.Time <= 0 {
			t.Fatalf("level %d: non-positive time %v", i, l.Time)
		}
		if l.Start < prevEnd {
			t.Fatalf("level %d starts at %v before previous end %v", i, l.Start, prevEnd)
		}
		prevEnd = l.Start + l.Time
		if l.Direction == TopDown && l.FrontierDegree < 0 {
			t.Fatalf("TD level %d missing frontier degree", i)
		}
		if l.Direction == BottomUp && l.FrontierDegree != -1 {
			t.Fatalf("BU level %d has frontier degree %d", i, l.FrontierDegree)
		}
		claimed += l.Claimed
		examined += l.Examined()
	}
	if res.Visited != claimed+1 {
		t.Fatalf("visited %d != claimed %d + root", res.Visited, claimed)
	}
	if res.ExaminedTD+res.ExaminedBU != examined {
		t.Fatalf("examined totals inconsistent")
	}
	// Frontier sizes chain: level i+1's frontier = level i's claims.
	for i := 0; i+1 < len(res.Levels); i++ {
		if res.Levels[i+1].Frontier != res.Levels[i].Claimed {
			t.Fatalf("level %d frontier %d != level %d claimed %d",
				i+1, res.Levels[i+1].Frontier, i, res.Levels[i].Claimed)
		}
	}
	// The last level claims nothing (termination).
	if res.Levels[len(res.Levels)-1].Claimed != 0 {
		t.Fatal("run terminated while still claiming")
	}
}

func TestTopDownOnlyExaminesAllComponentEdges(t *testing.T) {
	// A pure top-down BFS examines every directed edge out of every
	// visited vertex exactly once.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 29, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Mode: ModeTopDownOnly})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for v := int64(0); v < list.NumVertices; v++ {
		if res.Tree[v] != -1 {
			want += bg.Degree(v)
		}
	}
	if res.ExaminedTD != want {
		t.Fatalf("examined %d, want %d (degree sum of component)", res.ExaminedTD, want)
	}
}

func TestBottomUpExaminesAtMostComponentPlusMisses(t *testing.T) {
	// Bottom-up early termination: per claimed vertex, examined edges
	// up to and including the parent hit; so examined <= degree sum.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 37, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Mode: ModeBottomUpOnly})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound: every unvisited vertex scans its full list every
	// level; levels <= len(res.Levels).
	var degSum int64
	for v := int64(0); v < list.NumVertices; v++ {
		degSum += bg.Degree(v)
	}
	bound := degSum * int64(len(res.Levels))
	if res.ExaminedBU > bound {
		t.Fatalf("examined %d exceeds bound %d", res.ExaminedBU, bound)
	}
	if res.ExaminedBU == 0 {
		t.Fatal("no bottom-up work")
	}
}

func TestConvertFrontierRoundTrip(t *testing.T) {
	// Force frequent direction changes with a beta that flips back
	// aggressively and verify correctness is preserved.
	topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 10, 41, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 200, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches < 2 {
		t.Skipf("only %d switches at this seed", res.Switches)
	}
	checkAgainstSerial(t, res.Tree, list, root)
}

func TestQuickHybridMatchesSerialAcrossSeeds(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 2}
	f := func(seedRaw uint32, alphaRaw, betaRaw uint8) bool {
		seed := uint64(seedRaw)
		alpha := float64(alphaRaw%200) + 2
		beta := alpha * float64(betaRaw%20+1) / 2
		list, err := generator.Generate(generator.Config{
			Scale: 8, EdgeFactor: 8, Seed: seed,
		})
		if err != nil {
			return false
		}
		src := edgelist.ListSource{List: list}
		part := numa.NewPartition(topo, int(list.NumVertices))
		fg, err := csr.BuildForward(src, part)
		if err != nil {
			return false
		}
		bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
		if err != nil {
			return false
		}
		var fwd ForwardAccess = DRAMForward{G: fg}
		hb, err := hybridZero(bg)
		if err != nil {
			return false
		}
		r, err := NewRunner(fwd, hb, part, Config{Topology: topo, Alpha: alpha, Beta: beta})
		if err != nil {
			return false
		}
		var root int64 = -1
		for v := int64(0); v < list.NumVertices; v++ {
			if bg.Degree(v) > 0 {
				root = v
				break
			}
		}
		if root < 0 {
			return true
		}
		res, err := r.Run(root)
		if err != nil {
			return false
		}
		want := serialBFSLevels(list, root)
		got, err := validate.Levels(res.Tree, root)
		if err != nil {
			return false
		}
		for v := range want {
			if want[v] != got[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// hybridZero wraps a backward graph in the limit-0 hybrid access used by
// core.Build for the all-DRAM case.
func hybridZero(bg *csr.BackwardGraph) (BackwardAccess, error) {
	hb, err := semiext.BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return HybridBackwardAccess{HB: hb}, nil
}

func TestDisconnectedRootSingleton(t *testing.T) {
	// A root with degree 0 visits only itself in one level.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, list, part := buildTestGraphs(t, 8, 43, topo)
	var iso int64 = -1
	for v := int64(0); v < list.NumVertices; v++ {
		if bg.Degree(v) == 0 {
			iso = v
			break
		}
	}
	if iso < 0 {
		t.Skip("no isolated vertex")
	}
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(iso)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 {
		t.Fatalf("visited %d from isolated root", res.Visited)
	}
	if res.Tree[iso] != iso {
		t.Fatal("root not its own parent")
	}
}

func TestSingleCoreTopology(t *testing.T) {
	topo := numa.Topology{Nodes: 1, CoresPerNode: 1}
	fg, bg, list, part := buildTestGraphs(t, 9, 47, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
}

func TestOddVertexCountPartition(t *testing.T) {
	// A vertex count not divisible by nodes*64 exercises the straddling
	// word delegation in the bottom-up kernel. Build a custom list with
	// a prime vertex count.
	const n = 997
	l := &edgelist.List{NumVertices: n}
	for v := int64(0); v+1 < n; v++ {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 1})
	}
	// Extra shortcuts to create interesting frontiers.
	for v := int64(0); v+13 < n; v += 13 {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 13})
	}
	src := edgelist.ListSource{List: l}
	topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
	part := numa.NewPartition(topo, n)
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := wrapDRAM(t, fg, bg)
	for _, mode := range []Mode{ModeHybrid, ModeBottomUpOnly} {
		r, err := NewRunner(fwd, bwd, part, Config{Topology: topo, Mode: mode, Alpha: 10, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSerial(t, res.Tree, l, 0)
		if res.Visited != n {
			t.Fatalf("%v: visited %d, want %d", mode, res.Visited, n)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Topology != numa.DefaultTopology {
		t.Fatal("topology default")
	}
	if c.Alpha != 1e4 || c.Beta != 1e5 {
		t.Fatalf("alpha/beta defaults: %v/%v", c.Alpha, c.Beta)
	}
	if c.RealWorkers <= 0 {
		t.Fatal("workers default")
	}
	c = Config{Alpha: 7}.WithDefaults()
	if c.Beta != 70 {
		t.Fatalf("beta should default to 10*alpha, got %v", c.Beta)
	}
}

func TestDirectionAndModeStrings(t *testing.T) {
	if TopDown.String() != "top-down" || BottomUp.String() != "bottom-up" {
		t.Fatal("direction strings")
	}
	if ModeHybrid.String() != "hybrid" || ModeTopDownOnly.String() != "top-down-only" ||
		ModeBottomUpOnly.String() != "bottom-up-only" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string")
	}
}

// TestDecideRule drives the one exported alpha/beta rule directly and
// through each engine in this package that wraps it.
func TestDecideRule(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, _, part := buildTestGraphs(t, 8, 3, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	cfg := Config{Topology: topo, Alpha: 4, Beta: 8}
	r, err := NewRunner(fwd, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NewRunner(fwd, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned.pinned, pinned.pinnedDir = true, BottomUp
	br, err := NewBatchRunner(fwd, bwd, part, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	br.active = 64

	type decider func(dir Direction, prev, cur int64) Direction
	// n = 256: n/alpha = 64, n/beta = 32; times 64 for a full batch.
	rule := func(dir Direction, prev, cur int64) Direction {
		return NextDirection(dir, prev, cur, float64(r.N), 4, 8)
	}
	runner := func(dir Direction, prev, cur int64) Direction { return r.decide(1, dir, prev, cur) }
	stuck := func(dir Direction, prev, cur int64) Direction { return pinned.decide(1, dir, prev, cur) }
	cases := []struct {
		decide    decider
		dir       Direction
		prev, cur int64
		want      Direction
		desc      string
	}{
		{rule, TopDown, 10, 100, BottomUp, "grew past n/alpha"},
		{rule, TopDown, 200, 100, TopDown, "shrank: stay"},
		{rule, TopDown, 10, 50, TopDown, "below n/alpha: stay"},
		{rule, BottomUp, 100, 20, TopDown, "shrank below n/beta"},
		{rule, BottomUp, 10, 20, BottomUp, "grew: stay"},
		{rule, BottomUp, 100, 40, BottomUp, "above n/beta: stay"},
		{runner, TopDown, 10, 100, BottomUp, "runner: grew past n/alpha"},
		{runner, BottomUp, 100, 20, TopDown, "runner: shrank below n/beta"},
		{br.decide, TopDown, 10, 100, TopDown, "batch: 100 lane-bits are below 64n/alpha"},
		{br.decide, TopDown, 10 * 64, 100 * 64, BottomUp, "batch: grew past 64n/alpha"},
		{br.decide, BottomUp, 100 * 64, 40 * 64, BottomUp, "batch: above 64n/beta: stay"},
		{br.decide, BottomUp, 100 * 64, 20 * 64, TopDown, "batch: shrank below 64n/beta"},
		{stuck, BottomUp, 100, 20, BottomUp, "pinned bottom-up: the rule may not steer back"},
		{stuck, TopDown, 10, 100, BottomUp, "pinned bottom-up: from either direction"},
	}
	for _, c := range cases {
		if got := c.decide(c.dir, c.prev, c.cur); got != c.want {
			t.Errorf("%s: decide(%v, %d, %d) = %v, want %v",
				c.desc, c.dir, c.prev, c.cur, got, c.want)
		}
	}
}

func BenchmarkHybridBFSScale14(b *testing.B) {
	topo := numa.DefaultTopology
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		b.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		b.Fatal(err)
	}
	hb, err := hybridZero(bg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(DRAMForward{G: fg}, hb, part, Config{Topology: topo, Alpha: 1e3, Beta: 1e4})
	if err != nil {
		b.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopDownOnlyScale14(b *testing.B) {
	topo := numa.DefaultTopology
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		b.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		b.Fatal(err)
	}
	hb, err := hybridZero(bg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(DRAMForward{G: fg}, hb, part, Config{Topology: topo, Mode: ModeTopDownOnly})
	if err != nil {
		b.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(root); err != nil {
			b.Fatal(err)
		}
	}
}

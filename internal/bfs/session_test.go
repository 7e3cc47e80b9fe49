package bfs

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// drainSession steps the session until every live lane finishes, collecting
// each finished lane's tree (cloned) keyed by root, releasing lanes as they
// finish — the minimal serving loop.
func drainSession(t *testing.T, s *BatchSession) map[int64][]int64 {
	t.Helper()
	trees := make(map[int64][]int64)
	for s.InUse() != 0 {
		lv, err := s.Step()
		if err != nil {
			t.Fatalf("step %d: %v", s.Level(), err)
		}
		for m := lv.Finished; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			trees[s.Root(l)] = append([]int64(nil), s.Tree(l)...)
		}
		if err := s.Release(lv.Finished); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	return trees
}

// TestSessionContinuousAdmissionMatchesSerial runs the tentpole behavior:
// searches admitted into free lanes while other lanes are mid-flight must
// still produce exactly the serial BFS answer for their own root.
func TestSessionContinuousAdmissionMatchesSerial(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 21, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 9)
	br, err := NewBatchRunner(fwd, bwd, part, 4, Config{Topology: topo, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	s := br.OpenSession(true)

	next := 0
	admitSome := func() {
		for m := s.FreeLanes(); m != 0 && next < len(roots); m &= m - 1 {
			if err := s.Admit(bits.TrailingZeros64(m), roots[next]); err != nil {
				t.Fatalf("admit %d: %v", next, err)
			}
			next++
		}
	}
	trees := make(map[int64][]int64)
	visited := make(map[int64]int64)
	admitSome()
	for s.InUse() != 0 {
		lv, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		for m := lv.Finished; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			trees[s.Root(l)] = append([]int64(nil), s.Tree(l)...)
			visited[s.Root(l)] = s.VisitedCount(l)
		}
		if err := s.Release(lv.Finished); err != nil {
			t.Fatalf("release: %v", err)
		}
		// Refill free lanes at every boundary: lanes now hold searches at
		// different depths.
		admitSome()
	}
	if len(trees) != len(roots) {
		t.Fatalf("served %d searches, want %d", len(trees), len(roots))
	}
	for _, root := range roots {
		tree, ok := trees[root]
		if !ok {
			t.Fatalf("root %d never finished", root)
		}
		checkAgainstSerial(t, tree, list, root)
		rep, err := validate.Run(tree, root, edgelist.ListSource{List: list})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if rep.Visited != visited[root] {
			t.Fatalf("root %d: VisitedCount %d, validator says %d", root, visited[root], rep.Visited)
		}
	}
}

// TestSessionGangMatchesRunBatch admits a full cohort from idle and checks
// the per-level structure and final trees agree with RunBatch over the same
// roots — the session is a generalization, not a different algorithm.
func TestSessionGangMatchesRunBatch(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 23, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 5)
	for _, mode := range []Mode{ModeHybrid, ModeTopDownOnly, ModeBottomUpOnly} {
		cfg := Config{Topology: topo, Mode: mode, Alpha: 16, Beta: 160}
		br, err := NewBatchRunner(fwd, bwd, part, len(roots), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := br.RunBatch(roots)
		if err != nil {
			t.Fatal(err)
		}
		wantTrees := make([][]int64, len(roots))
		for l := range roots {
			wantTrees[l] = want.CloneTree(l)
		}

		br2, err := NewBatchRunner(fwd, bwd, part, len(roots), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := br2.OpenSession(true)
		for l, root := range roots {
			if err := s.Admit(l, root); err != nil {
				t.Fatal(err)
			}
		}
		step := 0
		for s.InUse() != 0 {
			lv, err := s.Step()
			if err != nil {
				t.Fatalf("%v step %d: %v", mode, step, err)
			}
			if step >= len(want.Levels) {
				t.Fatalf("%v: session ran more levels (%d+) than RunBatch (%d)", mode, step+1, len(want.Levels))
			}
			wl := want.Levels[step]
			if lv.Direction != wl.Direction || lv.Claimed != wl.Claimed {
				t.Fatalf("%v level %d: session {%v c=%d}, batch {%v c=%d}",
					mode, step, lv.Direction, lv.Claimed, wl.Direction, wl.Claimed)
			}
			if err := s.Release(lv.Finished); err != nil {
				t.Fatal(err)
			}
			step++
		}
		if step != len(want.Levels) {
			t.Fatalf("%v: session ran %d levels, batch %d", mode, step, len(want.Levels))
		}
		_ = list
		// Trees were collected per finish above in other tests; here just
		// re-run to compare final trees lane by lane.
		s2 := br2.OpenSession(true)
		for l, root := range roots {
			if err := s2.Admit(l, root); err != nil {
				t.Fatal(err)
			}
		}
		final := make([][]int64, len(roots))
		for s2.InUse() != 0 {
			lv, err := s2.Step()
			if err != nil {
				t.Fatal(err)
			}
			for m := lv.Finished; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				final[l] = append([]int64(nil), s2.Tree(l)...)
			}
			if err := s2.Release(lv.Finished); err != nil {
				t.Fatal(err)
			}
		}
		for l := range roots {
			for v := range wantTrees[l] {
				if final[l][v] != wantTrees[l][v] {
					t.Fatalf("%v lane %d vertex %d: session parent %d, batch parent %d",
						mode, l, v, final[l][v], wantTrees[l][v])
				}
			}
		}
	}
}

// TestSessionDeterministic replays one staggered admit/step/release script
// on two runners and demands bit-identical virtual time and trees.
func TestSessionDeterministic(t *testing.T) {
	topo := numa.Topology{Nodes: 4, CoresPerNode: 3}
	fg, bg, list, part := buildTestGraphs(t, 9, 29, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 11)
	var refTime int64
	var refTrees map[int64][]int64
	for trial := range 2 {
		br, err := NewBatchRunner(fwd, bwd, part, 4, Config{Topology: topo, Alpha: 32, Beta: 320})
		if err != nil {
			t.Fatal(err)
		}
		s := br.OpenSession(true)
		next := 0
		trees := make(map[int64][]int64)
		// Stagger admissions: two up front, then refill one lane per level.
		for l := 0; l < 2; l++ {
			if err := s.Admit(l, roots[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for s.InUse() != 0 {
			lv, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			for m := lv.Finished; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				trees[s.Root(l)] = append([]int64(nil), s.Tree(l)...)
			}
			if err := s.Release(lv.Finished); err != nil {
				t.Fatal(err)
			}
			if free := s.FreeLanes(); free != 0 && next < len(roots) {
				if err := s.Admit(bits.TrailingZeros64(free), roots[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		if len(trees) != len(roots) {
			t.Fatalf("run %d: served %d, want %d", trial, len(trees), len(roots))
		}
		if refTrees == nil {
			refTime = int64(s.Now())
			refTrees = trees
			continue
		}
		if int64(s.Now()) != refTime {
			t.Fatalf("run %d: virtual time %d, want %d", trial, s.Now(), refTime)
		}
		for root, tree := range trees {
			for v, p := range tree {
				if refTrees[root][v] != p {
					t.Fatalf("run %d root %d vertex %d: parent %d, want %d",
						trial, root, v, p, refTrees[root][v])
				}
			}
		}
	}
	_ = list
}

// TestSessionLaneScrubIsComplete interleaves two waves of searches through
// the same lanes and checks a released lane leaves nothing behind: the
// second wave's trees are exactly the first-principles answer even though
// their lanes carried unrelated searches moments before.
func TestSessionLaneScrubIsComplete(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 8, 31, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 6)
	br, err := NewBatchRunner(fwd, bwd, part, 3, Config{Topology: topo, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	s := br.OpenSession(true)
	for l := 0; l < 3; l++ {
		if err := s.Admit(l, roots[l]); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the first wave mid-flight: step once, then cancel everything.
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(s.InUse()); err != nil {
		t.Fatal(err)
	}
	if s.InUse() != 0 {
		t.Fatalf("lanes still in use after full release: %b", s.InUse())
	}
	for l := 0; l < 3; l++ {
		if err := s.Admit(l, roots[3+l]); err != nil {
			t.Fatal(err)
		}
	}
	trees := drainSession(t, s)
	for _, root := range roots[3:] {
		checkAgainstSerial(t, trees[root], list, root)
	}
}

// TestSessionForwardDeathDegradesLiveCohort is the continuous-batching
// version of the batch degraded-mode test: the forward device dies while a
// mixed-depth cohort is in flight; every admitted search must still finish
// correctly on the DRAM-resident bottom-up direction, and the session stays
// pinned for later admissions.
func TestSessionForwardDeathDegradesLiveCohort(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 37, topo)

	var stores []*failingStore
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
		stores = append(stores, fs)
		return fs, nil
	}
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	_, bwd := wrapDRAM(t, fg, bg)
	roots := pickRoots(t, bg.Degree, list.NumVertices, 6)
	br, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, 4, Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 1, Beta: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := br.OpenSession(true)
	// Two searches in flight, then the device dies before the next step.
	if err := s.Admit(0, roots[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(1, roots[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	for _, fs := range stores {
		fs.failAfter = 2
		fs.reads.Store(0)
	}
	if err := s.Admit(2, roots[2]); err != nil {
		t.Fatal(err)
	}
	sawDegrade := false
	trees := make(map[int64][]int64)
	for s.InUse() != 0 {
		lv, err := s.Step()
		if err != nil {
			t.Fatalf("session did not degrade past the dead forward device: %v", err)
		}
		if len(lv.Degraded) > 0 {
			sawDegrade = true
			ev := lv.Degraded[0]
			if ev.From != TopDown || ev.To != BottomUp {
				t.Fatalf("degraded %v -> %v, want top-down -> bottom-up", ev.From, ev.To)
			}
		}
		if sawDegrade && lv.Direction != BottomUp {
			t.Fatalf("level ran %v after degradation; session must stay pinned", lv.Direction)
		}
		for m := lv.Finished; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			trees[s.Root(l)] = append([]int64(nil), s.Tree(l)...)
		}
		if err := s.Release(lv.Finished); err != nil {
			t.Fatal(err)
		}
	}
	if !sawDegrade {
		t.Fatal("forward device death never surfaced as a degraded event")
	}
	if dir, pinned := s.Pinned(); !pinned || dir != BottomUp {
		t.Fatalf("session pinned=(%v,%v), want (bottom-up,true)", dir, pinned)
	}
	for _, root := range roots[:3] {
		checkAgainstSerial(t, trees[root], list, root)
	}
	// A search admitted after the death rides the pinned direction and
	// still finishes.
	if err := s.Admit(0, roots[3]); err != nil {
		t.Fatal(err)
	}
	post := drainSession(t, s)
	checkAgainstSerial(t, post[roots[3]], list, roots[3])
}

// TestSessionUnrescuableDeathCleansUpViaRelease: with both directions on
// NVM nothing can absorb the cohort, Step errors, and a full Release must
// scrub the dirty lanes well enough that a healed device serves a fresh
// cohort correctly.
func TestSessionUnrescuableDeathCleansUpViaRelease(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 8, 41, topo)

	var stores []*failingStore
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
		stores = append(stores, fs)
		return fs, nil
	}
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	hb, err := semiext.BuildHybridBackward(bg, 1, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	roots := pickRoots(t, bg.Degree, list.NumVertices, 4)
	br, err := NewBatchRunner(NVMForward{SF: sf}, HybridBackwardAccess{HB: hb}, part, 2, Config{
		Topology: topo, Mode: ModeTopDownOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := br.OpenSession(true)
	if err := s.Admit(0, roots[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(1, roots[1]); err != nil {
		t.Fatal(err)
	}
	for _, fs := range stores {
		fs.failAfter = 3
	}
	var stepErr error
	for s.InUse() != 0 && stepErr == nil {
		var lv *SessionLevel
		lv, stepErr = s.Step()
		if stepErr == nil {
			if err := s.Release(lv.Finished); err != nil {
				t.Fatal(err)
			}
		}
	}
	if stepErr == nil {
		t.Fatal("session survived a death with no rescue direction")
	}
	// Fail the in-flight searches: release everything, heal, go again.
	if err := s.Release(s.InUse()); err != nil {
		t.Fatal(err)
	}
	for _, fs := range stores {
		fs.failAfter = 1 << 60
		fs.reads.Store(0)
	}
	if err := s.Admit(0, roots[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(1, roots[3]); err != nil {
		t.Fatal(err)
	}
	trees := drainSession(t, s)
	for _, root := range roots[2:] {
		checkAgainstSerial(t, trees[root], list, root)
	}
}

// TestSessionRejectsBadUse pins the session's input contract.
func TestSessionRejectsBadUse(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, list, part := buildTestGraphs(t, 6, 43, topo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	br, err := NewBatchRunner(fwd, bwd, part, 2, Config{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	s := br.OpenSession(true)
	if _, err := s.Step(); err == nil {
		t.Error("step with no live lanes accepted")
	}
	if err := s.Admit(-1, 0); err == nil {
		t.Error("negative lane accepted")
	}
	if err := s.Admit(2, 0); err == nil {
		t.Error("out-of-range lane accepted")
	}
	if err := s.Admit(0, -1); err == nil {
		t.Error("negative root accepted")
	}
	if err := s.Admit(0, list.NumVertices); err == nil {
		t.Error("out-of-range root accepted")
	}
	root := pickRoots(t, bg.Degree, list.NumVertices, 1)[0]
	if err := s.Admit(0, root); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(0, root); err == nil {
		t.Error("double admission of a lane accepted")
	}
	// Releasing free lanes is a no-op, and time never runs backwards.
	if err := s.Release(1 << 1); err != nil {
		t.Fatal(err)
	}
	now := s.Now()
	s.AdvanceTo(now - vtime.Duration(5))
	if s.Now() != now {
		t.Error("AdvanceTo moved time backwards")
	}
	s.AdvanceTo(now + 100)
	if s.Now() != now+100 {
		t.Errorf("AdvanceTo(+100) left Now at %v", s.Now())
	}
}

// TestSessionTraversedEdgesMatchesPerLane drives seeded session schedules
// over a forward graph on NVM — staggered admissions of random roots
// (isolated vertices among them), cancels of live lanes, and a forward
// device that dies mid-schedule so a degraded cohort is resolved too — and
// checks at every Step that the one-pass count gives each finished lane
// exactly what validate.TraversedEdges gives its tree, and zero to every
// other lane.
func TestSessionTraversedEdgesMatchesPerLane(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 37, topo)
	n := list.NumVertices
	degrees := DegreeTable(n, bg.Degree)
	_, bwd := wrapDRAM(t, fg, bg)
	for seed := uint64(1); seed <= 4; seed++ {
		var stores []*failingStore
		mk := func(_ string, chunk int) (nvm.Storage, error) {
			fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
			stores = append(stores, fs)
			return fs, nil
		}
		sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		br, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, 8, Config{
			Topology: topo, Mode: ModeHybrid, Alpha: 1, Beta: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := br.OpenSession(true)
		g := rng.NewXoroshiro128(seed)
		dieAt := 3 + int(g.Uint64n(8))
		admitted, finished, cancelled, degradedFinished := 0, 0, 0, 0
		degraded := false
		for step := 0; admitted < 48 || s.InUse() != 0; step++ {
			// Up to three admissions per boundary, into the lowest free lanes.
			for k := g.Uint64n(4); k > 0 && admitted < 48 && s.FreeLanes() != 0; k-- {
				if err := s.Admit(bits.TrailingZeros64(s.FreeLanes()), int64(g.Uint64n(uint64(n)))); err != nil {
					t.Fatal(err)
				}
				admitted++
			}
			// Now and then cut a live search loose, as a serving loop cancels.
			if live := s.InUse(); live != 0 && g.Uint64n(5) == 0 {
				for k := g.Uint64n(uint64(bits.OnesCount64(live))); k > 0; k-- {
					live &= live - 1
				}
				if err := s.Release(live & -live); err != nil {
					t.Fatal(err)
				}
				cancelled++
			}
			if step == dieAt {
				for _, fs := range stores {
					fs.failAfter = 2
					fs.reads.Store(0)
				}
			}
			if s.InUse() == 0 {
				continue
			}
			lv, err := s.Step()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			degraded = degraded || len(lv.Degraded) > 0
			got := s.TraversedEdges(lv.Finished, degrees)
			for l := range got {
				want := int64(0)
				if lv.Finished&(1<<uint(l)) != 0 {
					want = validate.TraversedEdges(s.Tree(l), degrees)
					finished++
					if degraded {
						degradedFinished++
					}
				}
				if got[l] != want {
					t.Fatalf("seed %d step %d lane %d (finished %v): one pass counts %d traversed edges, the tree %d",
						seed, step, l, lv.Finished&(1<<uint(l)) != 0, got[l], want)
				}
			}
			if err := s.Release(lv.Finished); err != nil {
				t.Fatal(err)
			}
		}
		if finished < 24 || cancelled == 0 || degradedFinished == 0 {
			t.Fatalf("seed %d: %d finished, %d cancelled, %d finished after a degrade; the schedule must reach all three",
				seed, finished, cancelled, degradedFinished)
		}
		sf.Close()
	}
}

// TestTreelessSessionMatchesTreeSession drives one seeded schedule —
// staggered admissions of random roots, cancels of live lanes, finished
// lanes released, and a device that dies mid-level — on two runners over
// identical stacks, one session keeping trees and one not. The tree-less
// session must report exactly what the tree-keeping one reports at every
// boundary (each SessionLevel, visited counts, traversed edges, layer
// counters, virtual time) and hand out no trees; afterwards RunBatch on its
// runner must return the trees a fresh runner returns. It runs once per
// rescue direction: the forward graph dying under top-down, and the
// backward tails dying under bottom-up.
func TestTreelessSessionMatchesTreeSession(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 37, topo)
	n := list.NumVertices
	degrees := DegreeTable(n, bg.Degree)
	batchRoots := pickRoots(t, bg.Degree, n, 6)
	const lanes, queries = 8, 40
	for _, tc := range []struct {
		name        string
		from        Direction // the direction whose device dies
		alpha, beta float64
	}{
		// Alpha 1 keeps the rule on top-down over the offloaded forward
		// graph; a huge alpha and beta keep it bottom-up over offloaded
		// backward tails once a cohort's frontier grows.
		{"forward-dies", TopDown, 1, 10},
		{"backward-dies", BottomUp, 1e6, 1e18},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// build returns a runner over a fresh stack whose NVM stores
			// the schedule can kill and heal.
			build := func() (*BatchRunner, []*failingStore) {
				var stores []*failingStore
				mk := func(_ string, chunk int) (nvm.Storage, error) {
					fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
					stores = append(stores, fs)
					return fs, nil
				}
				fwd, bwd := wrapDRAM(t, fg, bg)
				if tc.from == TopDown {
					sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { sf.Close() })
					fwd = NVMForward{SF: sf}
				} else {
					hb, err := semiext.BuildHybridBackward(bg, 1, mk, nil)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { hb.Close() })
					bwd = HybridBackwardAccess{HB: hb}
				}
				br, err := NewBatchRunner(fwd, bwd, part, lanes, Config{
					Topology: topo, Mode: ModeHybrid, Alpha: tc.alpha, Beta: tc.beta,
				})
				if err != nil {
					t.Fatal(err)
				}
				return br, stores
			}
			setStores := func(failAfter int64, stores ...[]*failingStore) {
				for _, ss := range stores {
					for _, fs := range ss {
						fs.failAfter = failAfter
						fs.reads.Store(0)
					}
				}
			}
			keepRunner, keepStores := build()
			bareRunner, bareStores := build()
			keep, bare := keepRunner.OpenSession(true), bareRunner.OpenSession(false)
			both := func(f func(s *BatchSession) error) {
				t.Helper()
				for _, s := range []*BatchSession{keep, bare} {
					if err := f(s); err != nil {
						t.Fatal(err)
					}
				}
			}

			sched := rng.NewXoroshiro128(11)
			dieAt := 3 + int(sched.Uint64n(4))
			admitted, cancelled, rescued := 0, 0, 0
			for step := 0; admitted < queries || keep.InUse() != 0; step++ {
				// Up to three admissions per boundary, into the lowest free lanes.
				for k := sched.Uint64n(4); k > 0 && admitted < queries && keep.FreeLanes() != 0; k-- {
					l, root := bits.TrailingZeros64(keep.FreeLanes()), int64(sched.Uint64n(uint64(n)))
					both(func(s *BatchSession) error { return s.Admit(l, root) })
					admitted++
				}
				// Now and then cut a live search loose, as a serving loop cancels.
				if live := keep.InUse(); live != 0 && sched.Uint64n(5) == 0 {
					for k := sched.Uint64n(uint64(bits.OnesCount64(live))); k > 0; k-- {
						live &= live - 1
					}
					both(func(s *BatchSession) error { return s.Release(live & -live) })
					cancelled++
				}
				if step == dieAt {
					setStores(2, keepStores, bareStores)
				}
				if keep.InUse() != bare.InUse() {
					t.Fatalf("step %d: lanes in use %b without trees, %b with", step, bare.InUse(), keep.InUse())
				}
				if keep.InUse() == 0 {
					continue
				}
				want, err := keep.Step()
				if err != nil {
					t.Fatalf("step %d, keeping trees: %v", step, err)
				}
				got, err := bare.Step()
				if err != nil {
					t.Fatalf("step %d, without trees: %v", step, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: level without trees\n%+v\nwith trees\n%+v", step, got, want)
				}
				for _, ev := range want.Degraded {
					if ev.From != tc.from {
						t.Fatalf("step %d: rescued %v -> %v, want a rescue from %v", step, ev.From, ev.To, tc.from)
					}
					rescued++
				}
				if g, w := bare.TraversedEdges(want.Finished, degrees), keep.TraversedEdges(want.Finished, degrees); g != w {
					t.Fatalf("step %d: traversed edges %v without trees, %v with", step, g, w)
				}
				for l := range lanes {
					if g, w := bare.VisitedCount(l), keep.VisitedCount(l); g != w {
						t.Fatalf("step %d lane %d: visited %d without trees, %d with", step, l, g, w)
					}
					if bare.Tree(l) != nil {
						t.Fatalf("step %d lane %d: a session without trees returned one", step, l)
					}
				}
				if g, w := bare.LayerTotals(), keep.LayerTotals(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d: layer totals %v without trees, %v with", step, g, w)
				}
				if g, w := bare.Now(), keep.Now(); g != w {
					t.Fatalf("step %d: now %v without trees, %v with", step, g, w)
				}
				both(func(s *BatchSession) error { return s.Release(want.Finished) })
			}
			if cancelled == 0 || rescued == 0 {
				t.Fatalf("%d cancelled, %d rescued; the schedule must reach both", cancelled, rescued)
			}

			// The tree-less session left the runner's trees unwritten;
			// RunBatch must still start from clean ones.
			setStores(1<<60, keepStores, bareStores)
			fresh, _ := build()
			want, err := fresh.RunBatch(batchRoots)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bareRunner.RunBatch(batchRoots)
			if err != nil {
				t.Fatal(err)
			}
			for l, root := range batchRoots {
				checkAgainstSerial(t, want.Trees[l], list, root)
				if !slices.Equal(got.Trees[l], want.Trees[l]) {
					t.Fatalf("lane %d (root %d): RunBatch after a session without trees differs from a fresh runner's", l, root)
				}
			}
		})
	}
}

package bfs

import (
	"errors"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
)

// TestBatchForwardDeathDegradesAllLanes kills the forward device mid-batch
// and checks that every lane — not just the one whose read hit the dead
// device — finishes correctly on the DRAM-resident bottom-up direction.
func TestBatchForwardDeathDegradesAllLanes(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 61, topo)

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
	roots := pickRoots(t, bg.Degree, list.NumVertices, 8)
	// Alpha 1 keeps the rule on top-down, so the batch is still streaming
	// the forward device when it dies.
	br, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, len(roots), Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 1, Beta: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s.failAfter = 5
	}
	res, err := br.RunBatch(roots)
	if err != nil {
		t.Fatalf("batch did not degrade past the dead forward device: %v", err)
	}
	if n := res.Resilience.DegradedLevels(); n != 1 {
		t.Fatalf("degraded %d levels, want exactly 1 (then pinned)", n)
	}
	ev := res.Resilience.Degraded[0]
	if ev.From != TopDown || ev.To != BottomUp {
		t.Fatalf("degraded %v -> %v, want top-down -> bottom-up", ev.From, ev.To)
	}
	for l, root := range roots {
		checkAgainstSerial(t, res.Trees[l], list, root)
	}
	// After the degradation the controller must stay pinned: every
	// post-event level is bottom-up.
	seenDegrade := false
	for _, ls := range res.Levels {
		if ls.Level >= ev.Level {
			seenDegrade = true
			if ls.Direction != BottomUp {
				t.Fatalf("level %d ran %v after degradation", ls.Level, ls.Direction)
			}
		}
	}
	if !seenDegrade {
		t.Fatal("no levels recorded at or after the degradation")
	}
}

// TestBatchBackwardDeathDegradesToTopDown covers the inverted placement:
// the backward tail dies mid-sweep and the surviving lanes finish on the
// DRAM-resident forward graph, with the partially-committed bottom-up
// claims preserved (seeded) rather than lost or double-counted.
func TestBatchBackwardDeathDegradesToTopDown(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 67, topo)

	var stores []*failingStore
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
		stores = append(stores, fs)
		return fs, nil
	}
	hb, err := semiext.BuildHybridBackward(bg, 1, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	roots := pickRoots(t, bg.Degree, list.NumVertices, 6)
	// A huge alpha trips the switch on the first growing frontier, and a
	// huge beta keeps the run bottom-up, so the batch is mid-sweep on the
	// backward tail store when it dies.
	br, err := NewBatchRunner(DRAMForward{G: fg}, HybridBackwardAccess{HB: hb}, part, len(roots), Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 1e6, Beta: 1e18,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s.failAfter = 3
	}
	res, err := br.RunBatch(roots)
	if err != nil {
		t.Fatalf("batch did not degrade past the dead backward tail: %v", err)
	}
	if n := res.Resilience.DegradedLevels(); n != 1 {
		t.Fatalf("degraded %d levels, want exactly 1", n)
	}
	ev := res.Resilience.Degraded[0]
	if ev.From != BottomUp || ev.To != TopDown {
		t.Fatalf("degraded %v -> %v, want bottom-up -> top-down", ev.From, ev.To)
	}
	for l, root := range roots {
		checkAgainstSerial(t, res.Trees[l], list, root)
	}
}

// TestBatchPropagatesUnrescuableFailure: with the backward graph also on
// NVM there is no DRAM-resident direction to pin to, so the batch must
// fail cleanly and stay usable for the next batch once the device heals.
func TestBatchPropagatesUnrescuableFailure(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 8, 71, topo)

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
	br, err := NewBatchRunner(NVMForward{SF: sf}, HybridBackwardAccess{HB: hb}, part, len(roots), Config{
		Topology: topo, Mode: ModeTopDownOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.RunBatch(roots); err != nil {
		t.Fatalf("healthy batch failed: %v", err)
	}
	for _, s := range stores {
		s.reads.Store(0)
		s.failAfter = 5
	}
	_, err = br.RunBatch(roots)
	if err == nil {
		t.Fatal("batch succeeded on a dead device with no rescue direction")
	}
	if !errors.Is(err, errDeviceGone) {
		t.Fatalf("error does not wrap the device failure: %v", err)
	}
	// Heal and re-run: a failed batch must not poison the runner.
	for _, s := range stores {
		s.failAfter = 1 << 60
	}
	res, err := br.RunBatch(roots)
	if err != nil {
		t.Fatalf("post-recovery batch failed: %v", err)
	}
	for l, root := range roots {
		checkAgainstSerial(t, res.Trees[l], list, root)
	}
}

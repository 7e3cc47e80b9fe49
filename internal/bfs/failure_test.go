package bfs

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// failingStore wraps a Storage and fails every read after the first
// failAfter successes — simulating a dying flash device mid-traversal.
type failingStore struct {
	nvm.Storage
	reads     atomic.Int64
	failAfter int64
}

var errDeviceGone = errors.New("injected device failure")

func (s *failingStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.reads.Add(1) > s.failAfter {
		return fmt.Errorf("read at %d: %w", off, errDeviceGone)
	}
	return s.Storage.ReadAt(clock, p, off)
}

func TestRunPropagatesDeviceFailure(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, _, part := buildTestGraphs(t, 9, 61, topo)

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
	r, err := NewRunner(NVMForward{SF: sf}, bwd, part, Config{
		Topology: topo, Mode: ModeTopDownOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	// Healthy first: the run must succeed.
	if _, err := r.Run(root); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	// Now let the device die after a handful of reads.
	for _, s := range stores {
		s.reads.Store(0)
		s.failAfter = 5
	}
	_, err = r.Run(root)
	if err == nil {
		t.Fatal("run succeeded on a failing device")
	}
	if !errors.Is(err, errDeviceGone) {
		t.Fatalf("error does not wrap the device failure: %v", err)
	}
}

func TestRunPropagatesBackwardTailFailure(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	_, bg, _, part := buildTestGraphs(t, 9, 67, topo)
	fg, _, _, _ := buildTestGraphs(t, 9, 67, topo)

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
	r, err := NewRunner(DRAMForward{G: fg}, HybridBackwardAccess{HB: hb}, part, Config{
		Topology: topo, Mode: ModeBottomUpOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	if _, err := r.Run(root); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	for _, s := range stores {
		s.reads.Store(0)
		s.failAfter = 0
	}
	if _, err := r.Run(root); err == nil {
		t.Fatal("run succeeded with a dead tail store")
	}
}

func TestRunnerUsableAfterFailure(t *testing.T) {
	// A failed run must not poison the runner: once the device heals,
	// the next run succeeds and validates.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
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
	_, bwd := wrapDRAM(t, fg, bg)
	cfg := Config{Topology: topo, Mode: ModeTopDownOnly}
	r, err := NewRunner(NVMForward{SF: sf}, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	roots := []int64{root, root + 1, root + 2}
	fail := func(run func() error) {
		t.Helper()
		for _, s := range stores {
			s.reads.Store(0)
			s.failAfter = 2
		}
		if err := run(); err == nil {
			t.Fatal("expected failure")
		}
		for _, s := range stores {
			s.failAfter = 1 << 60
		}
	}

	fail(func() error { _, err := r.Run(root); return err })
	res, err := r.Run(root)
	if err != nil {
		t.Fatalf("post-recovery run failed: %v", err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
	// The failed run stopped its workers at different virtual times; the
	// next run must not inherit that skew.
	fresh, err := NewRunner(NVMForward{SF: sf}, bwd, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != want.Time {
		t.Errorf("post-recovery run took %v, a fresh runner on the same stores %v", res.Time, want.Time)
	}

	fail(func() error { _, err := br.RunBatch(roots); return err })
	bres, err := br.RunBatch(roots)
	if err != nil {
		t.Fatalf("post-recovery batch failed: %v", err)
	}
	freshBatch, err := NewBatchRunner(NVMForward{SF: sf}, bwd, part, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bwant, err := freshBatch.RunBatch(roots)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Time != bwant.Time {
		t.Errorf("post-recovery batch took %v, a fresh batch runner on the same stores %v", bres.Time, bwant.Time)
	}
}

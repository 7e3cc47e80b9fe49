package vp_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vp"
	"semibfs/internal/vtime"
)

// failingStore fails every read after the first failAfter successes.
type failingStore struct {
	nvm.Storage
	reads     atomic.Int64
	failAfter int64
}

func (s *failingStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.reads.Add(1) > s.failAfter {
		return errors.New("injected device failure")
	}
	return s.Storage.ReadAt(clock, p, off)
}

// TestEngineUsableAfterFailure: a failed run stops its workers at different
// virtual times; once the device heals, the next run on the same engine
// must succeed and take exactly as long as on a fresh engine.
func TestEngineUsableAfterFailure(t *testing.T) {
	dram, bwd, _, part := buildDRAM(t, 8, 71)
	var stores []*failingStore
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 1 << 60}
		stores = append(stores, fs)
		return fs, nil
	}
	sf, err := semiext.OffloadForward(dram.(bfs.DRAMForward).G, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	fwd := bfs.NVMForward{SF: sf}
	cfg := vpConfig(1, bfs.ModeTopDownOnly)
	root := int64(0)
	for bwd.Degree(root) == 0 {
		root++
	}

	eng, err := vp.NewEngine(fwd, bwd, part, vp.NewBFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s.failAfter = 3
	}
	if _, err := eng.Run(root); err == nil {
		t.Fatal("expected failure")
	}
	for _, s := range stores {
		s.failAfter = 1 << 60
	}
	res, err := eng.Run(root)
	if err != nil {
		t.Fatalf("post-recovery run failed: %v", err)
	}
	fresh, err := vp.NewEngine(fwd, bwd, part, vp.NewBFS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != want.Time {
		t.Errorf("post-recovery run took %v, a fresh engine on the same stores %v", res.Time, want.Time)
	}
}

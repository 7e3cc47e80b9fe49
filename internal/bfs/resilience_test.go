package bfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// flakyStore fails the first read at every offset inside each period-th
// 512-byte block with a retryable transient error; the retry (a second
// attempt at the same offset) succeeds. The failures depend only on what is
// read, never on the order workers read it in.
type flakyStore struct {
	nvm.Storage
	attempts sync.Map // offset -> struct{}, once it has been read
	period   int64
}

func (s *flakyStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if _, retried := s.attempts.LoadOrStore(off, struct{}{}); !retried && (off>>9)%s.period == 0 {
		return fmt.Errorf("flaky read at %d: %w", off, nvm.ErrTransient)
	}
	return s.Storage.ReadAt(clock, p, off)
}

func TestHybridRecoversFromTransientFaults(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, list, part := buildTestGraphs(t, 9, 61, topo)

	mk := func(_ string, chunk int) (nvm.Storage, error) {
		return &flakyStore{Storage: nvm.NewMemStore(nil, chunk), period: 3}, nil
	}
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	_, bwd := wrapDRAM(t, fg, bg)
	// Alpha 1 keeps the hybrid top-down (the frontier can never exceed
	// N/1), so the traversal actually streams the flaky NVM store.
	r, err := NewRunner(NVMForward{SF: sf}, bwd, part, Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 1, Beta: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatalf("run with 1-in-3 transient failures did not recover: %v", err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
	retry, _ := res.Layers.Layer("retry")
	if retry.Get("retries") == 0 || retry.Get("read_errors") == 0 {
		t.Fatalf("retry counters empty despite injected faults: %+v", retry)
	}
	if retry.Get("backoff_ns") == 0 {
		t.Fatal("retries recorded but no backoff time charged")
	}
	if n := res.Resilience.DegradedLevels(); n != 0 {
		t.Fatalf("transient faults degraded %d levels; retries should absorb them", n)
	}
	// Backoff must show up in the run's virtual time accounting: a
	// healthy DRAM-only runner would not have these counters at all.
	if res.Time <= 0 {
		t.Fatal("run reported no virtual time")
	}
}

func TestForwardDeviceDeathDegradesToBottomUp(t *testing.T) {
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
	// Alpha 1 keeps the alpha/beta rule on top-down, so the run is still
	// streaming the forward device when it dies mid-traversal.
	r, err := NewRunner(NVMForward{SF: sf}, bwd, part, Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 1, Beta: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	// Let the forward device die a few reads into the traversal. The
	// backward graph is DRAM-resident, so the run must complete bottom-up.
	for _, s := range stores {
		s.failAfter = 5
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatalf("run did not degrade past the dead forward device: %v", err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
	if n := res.Resilience.DegradedLevels(); n != 1 {
		t.Fatalf("degraded %d levels, want exactly 1 (then pinned)", n)
	}
	ev := res.Resilience.Degraded[0]
	if ev.From != TopDown || ev.To != BottomUp {
		t.Fatalf("degraded %v -> %v, want top-down -> bottom-up", ev.From, ev.To)
	}
	if ev.Cause == "" {
		t.Fatal("degradation event has no cause")
	}
	// Every level from the rescue on must be bottom-up (pinned).
	for _, l := range res.Levels {
		if l.Level >= ev.Level && l.Direction != BottomUp {
			t.Fatalf("level %d ran %v after pinning to bottom-up", l.Level, l.Direction)
		}
	}
	if res.Layers.Get("retry", "retries") == 0 {
		t.Fatal("device death should have been preceded by retry attempts")
	}

	// The next run starts unpinned: with the device still dead it
	// degrades again at its first top-down level and still validates.
	res2, err := r.Run(root)
	if err != nil {
		t.Fatalf("second degraded run failed: %v", err)
	}
	checkAgainstSerial(t, res2.Tree, list, root)
	if res2.Resilience.DegradedLevels() != 1 {
		t.Fatalf("second run degraded %d levels, want 1", res2.Resilience.DegradedLevels())
	}
}

func TestBackwardTailDeathDegradesToTopDown(t *testing.T) {
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
	// Forward graph in DRAM: the degraded top-down direction is available.
	r, err := NewRunner(DRAMForward{G: fg}, HybridBackwardAccess{HB: hb}, part, Config{
		Topology: topo, Mode: ModeHybrid, Alpha: 16, Beta: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	// Healthy run first to confirm the hybrid actually goes bottom-up
	// (otherwise the tail store is never read and this test is vacuous).
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	sawBU := false
	for _, l := range res.Levels {
		sawBU = sawBU || l.Direction == BottomUp
	}
	if !sawBU {
		t.Skip("hybrid never switched bottom-up at this scale; tail unused")
	}
	for _, s := range stores {
		s.reads.Store(0)
		s.failAfter = 2
	}
	res, err = r.Run(root)
	if err != nil {
		t.Fatalf("run did not degrade past the dead tail store: %v", err)
	}
	checkAgainstSerial(t, res.Tree, list, root)
	if n := res.Resilience.DegradedLevels(); n != 1 {
		t.Fatalf("degraded %d levels, want 1", n)
	}
	ev := res.Resilience.Degraded[0]
	if ev.From != BottomUp || ev.To != TopDown {
		t.Fatalf("degraded %v -> %v, want bottom-up -> top-down", ev.From, ev.To)
	}
	for _, l := range res.Levels {
		if l.Level >= ev.Level && l.Direction != TopDown {
			t.Fatalf("level %d ran %v after pinning to top-down", l.Level, l.Direction)
		}
	}
}

func TestRetryExhaustionIsStructured(t *testing.T) {
	// A persistently failing device in a forced single-direction mode has
	// no rescue direction: the error must surface with retry context, the
	// failing level, and the root cause intact.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, _, part := buildTestGraphs(t, 8, 71, topo)
	var stores []*failingStore
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		fs := &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 2}
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
	_, err = r.Run(root)
	if err == nil {
		t.Fatal("expected failure in top-down-only mode")
	}
	var re *nvm.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a RetryExhaustedError: %v", err)
	}
	if re.Attempts != nvm.DefaultRetryPolicy.MaxAttempts {
		t.Fatalf("exhausted after %d attempts, policy says %d",
			re.Attempts, nvm.DefaultRetryPolicy.MaxAttempts)
	}
	if !errors.Is(err, errDeviceGone) {
		t.Fatalf("root cause lost: %v", err)
	}
	if !strings.Contains(err.Error(), "level") {
		t.Fatalf("error lacks level context: %v", err)
	}
}

package semibfs

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// poolTrackedStore counts Close calls and charges every read against a
// budget shared by all stores of the test; once the budget is spent, reads
// fail permanently — a whole-device death, not a transient fault.
type poolTrackedStore struct {
	nvm.Storage
	closes atomic.Int32
	reads  *atomic.Int64
	budget *atomic.Int64
}

var errPoolDeviceGone = errors.New("pool test device gone")

func (s *poolTrackedStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.reads.Add(1) > s.budget.Load() {
		return errPoolDeviceGone
	}
	return s.Storage.ReadAt(clock, p, off)
}

func (s *poolTrackedStore) Close() error {
	s.closes.Add(1)
	return s.Storage.Close()
}

func assertPoolStoresClosedOnce(t *testing.T, created []*poolTrackedStore) {
	t.Helper()
	for i, st := range created {
		if n := st.closes.Load(); n != 1 {
			t.Fatalf("store %d closed %d times, want exactly 1", i, n)
		}
	}
}

// buildPoolLeakGraphs mirrors the internal leak-test fixture: a small R-MAT
// graph with its forward/backward CSR pair and partition.
func buildPoolLeakGraphs(t *testing.T, seed uint64) (*csr.ForwardGraph, *csr.BackwardGraph, *edgelist.List, *numa.Partition) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: 8, EdgeFactor: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	return fg, bg, list, part
}

func poolLeakRoots(t *testing.T, bg *csr.BackwardGraph, n int64, count int) []int64 {
	t.Helper()
	var roots []int64
	for v := int64(0); v < n && len(roots) < count; v++ {
		if bg.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	if len(roots) < count {
		t.Fatalf("graph too sparse: %d usable roots, want %d", len(roots), count)
	}
	return roots
}

// TestQueryPoolClosesStoresOnceAfterMidBatchDeath kills the shared devices
// in the middle of a multi-batch Flush — the first batch completes, the
// second dies with no DRAM direction to rescue it — and then hammers Close
// from several goroutines. Every base store must be closed exactly once:
// zero is a leak, two a double close.
func TestQueryPoolClosesStoresOnceAfterMidBatchDeath(t *testing.T) {
	fg, bg, list, part := buildPoolLeakGraphs(t, 11)
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}

	var created []*poolTrackedStore
	var reads, budget atomic.Int64
	budget.Store(1 << 60)
	mk := func(name string, chunk int) (nvm.Storage, error) {
		st := &poolTrackedStore{
			Storage: nvm.NewNamedMemStore(name, nil, chunk),
			reads:   &reads, budget: &budget,
		}
		created = append(created, st)
		return st, nil
	}
	// Both directions on NVM so a dead device is unrescuable; checksums and
	// a 2-way mirror so the exactly-once walk crosses the whole stack. No
	// cache: that keeps the read count of a batch deterministic, which the
	// budget trick below relies on.
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{
		Checksums: true, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := semiext.BuildHybridBackward(bg, 1, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) < 3 {
		t.Fatalf("fixture built only %d stores", len(created))
	}
	// The pool's runner must see the full layered stack.
	for _, root := range sf.Stacks() {
		counts := map[string]int{}
		nvm.WalkStack(root, func(s nvm.Storage) {
			if l, ok := s.(nvm.Layer); ok {
				counts[l.Kind()]++
			}
		})
		for kind, want := range map[string]int{"metrics": 1, "retry": 1, "mirror": 1, "checksum": 2} {
			if counts[kind] != want {
				t.Fatalf("forward stack exposes %d %q layers, want %d (saw %v)",
					counts[kind], kind, want, counts)
			}
		}
	}

	br, err := bfs.NewBatchRunner(bfs.NVMForward{SF: sf}, bfs.HybridBackwardAccess{HB: hb}, part, 4, bfs.Config{
		Topology: topo, Mode: bfs.ModeTopDownOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := newQueryPool(br, bg.Degree, list.NumVertices)
	pool.closers = append(pool.closers, sf, hb)

	// Measure the exact read cost of one batch of rootsA, healthy.
	rootsA := poolLeakRoots(t, bg, list.NumVertices, 8)
	if _, _, err := pool.Run(rootsA[:4]); err != nil {
		t.Fatal(err)
	}
	costA := reads.Load()

	// Replay rootsA followed by a second batch, with exactly enough budget
	// for the replay: batch 0 completes, batch 1's first read finds the
	// device dead.
	reads.Store(0)
	budget.Store(costA)
	for _, root := range rootsA {
		if _, err := pool.Submit(root); err != nil {
			t.Fatal(err)
		}
	}
	results, stats, err := pool.Flush()
	if !errors.Is(err, errPoolDeviceGone) {
		t.Fatalf("flush did not surface the device death: %v", err)
	}
	if len(results) != 4 || len(stats) != 1 {
		t.Fatalf("got %d results and %d batch stats from the partial flush, want 4 and 1",
			len(results), len(stats))
	}
	if pool.Pending() != 0 {
		t.Fatalf("aborted batch left %d queries pending", pool.Pending())
	}
	for _, st := range created {
		if n := st.closes.Load(); n != 0 {
			t.Fatalf("flush error closed a store %d times; stores stay open until Close", n)
		}
	}

	// Close from several goroutines at once, then twice more for good
	// measure: the stores must be closed exactly once.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	assertPoolStoresClosedOnce(t, created)
}

// TestQueryPoolSurvivesDeathViaDegradedMode is the rescuable counterpart:
// the forward device dies mid-batch but the backward graph is DRAM-resident,
// so the surviving lanes finish bottom-up, the flush succeeds for every
// query, and Close still walks the stores exactly once.
func TestQueryPoolSurvivesDeathViaDegradedMode(t *testing.T) {
	fg, bg, list, part := buildPoolLeakGraphs(t, 13)
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}

	var created []*poolTrackedStore
	var reads, budget atomic.Int64
	budget.Store(1 << 60)
	mk := func(name string, chunk int) (nvm.Storage, error) {
		st := &poolTrackedStore{
			Storage: nvm.NewNamedMemStore(name, nil, chunk),
			reads:   &reads, budget: &budget,
		}
		created = append(created, st)
		return st, nil
	}
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{
		Checksums: true, Replicas: 2, CacheBytes: 16 << 10, ReadaheadBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hbDram, err := semiext.BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Alpha 1 keeps the controller top-down, streaming the forward device
	// when the budget runs out a few reads into the batch.
	br, err := bfs.NewBatchRunner(bfs.NVMForward{SF: sf}, bfs.HybridBackwardAccess{HB: hbDram}, part, 4, bfs.Config{
		Topology: topo, Mode: bfs.ModeHybrid, Alpha: 1, Beta: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := newQueryPool(br, bg.Degree, list.NumVertices)
	pool.closers = append(pool.closers, sf, hbDram)

	roots := poolLeakRoots(t, bg, list.NumVertices, 4)
	budget.Store(5)
	results, stats, err := pool.Run(roots)
	if err != nil {
		t.Fatalf("flush did not ride out the forward death: %v", err)
	}
	if len(results) != len(roots) || len(stats) != 1 {
		t.Fatalf("got %d results and %d batch stats, want %d and 1", len(results), len(stats), len(roots))
	}
	if stats[0].Degraded == 0 {
		t.Fatal("batch reports no degraded levels despite the dead forward device")
	}
	src := edgelist.ListSource{List: list}
	for i, qr := range results {
		if _, err := validate.Run(qr.Parents, qr.Root, src); err != nil {
			t.Fatalf("lane %d (root %d) after degradation: %v", i, qr.Root, err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	assertPoolStoresClosedOnce(t, created)
}

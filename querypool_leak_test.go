package semibfs

import (
	"errors"
	"sync/atomic"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/serve"
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

// deadlyStack is a 4-lane top-down batch runner whose forward and
// backward graphs both sit on tracked NVM stores, so a dead device is
// unrescuable. Every store's reads count against one budget: set the
// budget to the reads so far and the next read finds the device dead.
type deadlyStack struct {
	br            *bfs.BatchRunner
	sf            *semiext.SemiForward
	hb            *semiext.HybridBackward
	bg            *csr.BackwardGraph
	list          *edgelist.List
	created       []*poolTrackedStore
	reads, budget *atomic.Int64
}

func buildDeadlyStack(t *testing.T, seed uint64) *deadlyStack {
	t.Helper()
	fg, bg, list, part := buildPoolLeakGraphs(t, seed)
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	d := &deadlyStack{bg: bg, list: list, reads: new(atomic.Int64), budget: new(atomic.Int64)}
	d.budget.Store(1 << 60)
	mk := func(name string, chunk int) (nvm.Storage, error) {
		st := &poolTrackedStore{
			Storage: nvm.NewNamedMemStore(name, nil, chunk),
			reads:   d.reads, budget: d.budget,
		}
		d.created = append(d.created, st)
		return st, nil
	}
	// Both directions on NVM so a dead device is unrescuable; checksums and
	// a 2-way mirror so the exactly-once walk crosses the whole stack. No
	// cache: that keeps the read count of a batch deterministic, which the
	// budget trick relies on.
	var err error
	d.sf, err = semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{
		Checksums: true, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.hb, err = semiext.BuildHybridBackward(bg, 1, mk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.created) < 3 {
		t.Fatalf("fixture built only %d stores", len(d.created))
	}
	// The runner must see the full layered stack.
	for _, root := range d.sf.Stacks() {
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
	d.br, err = bfs.NewBatchRunner(bfs.NVMForward{SF: d.sf}, bfs.HybridBackwardAccess{HB: d.hb}, part, 4, bfs.Config{
		Topology: topo, Mode: bfs.ModeTopDownOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestQueryPoolClosesStoresOnceAfterMidBatchDeath kills the shared devices
// in the middle of a multi-batch Flush — the first batch completes, the
// second dies with no DRAM direction to rescue it — and then calls Close
// several times. Every base store must be closed exactly once: zero is a
// leak, two a double close.
func TestQueryPoolClosesStoresOnceAfterMidBatchDeath(t *testing.T) {
	d := buildDeadlyStack(t, 11)
	br, bg, list, created, reads, budget := d.br, d.bg, d.list, d.created, d.reads, d.budget
	pool := newQueryPool(br, bfs.DegreeTable(list.NumVertices, bg.Degree))
	pool.closers = append(pool.closers, d.sf, d.hb)

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

	// Close five times: the stores must be closed exactly once.
	for range 5 {
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertPoolStoresClosedOnce(t, created)
}

// TestServerCloseReturnsFinalSweepError lets a device death land while
// queries are in flight and then closes the server: Close's final sweeps
// hit the dead device with no DRAM direction to degrade to. Close must
// return that error, the in-flight queries must fail, the queued ones be
// cancelled, and every submission keep exactly one outcome.
func TestServerCloseReturnsFinalSweepError(t *testing.T) {
	d := buildDeadlyStack(t, 11)
	defer d.sf.Close()
	defer d.hb.Close()
	srv := serve.NewServer(d.br, d.bg.Degree, d.list.NumVertices, ServerConfig{Lanes: 4})
	for _, root := range poolLeakRoots(t, d.bg, d.list.NumVertices, 8) {
		if _, err := srv.Submit(Arrival{Root: root}); err != nil {
			t.Fatal(err)
		}
	}
	// One sweep admits four queries and runs their first level; then the
	// device dies under them.
	if err := srv.RunUntil(1e-9); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Steps != 1 || srv.QueueDepth() != 4 {
		t.Fatalf("after one sweep: %d steps, %d queued; want 1 and 4", st.Steps, srv.QueueDepth())
	}
	d.budget.Store(d.reads.Load())
	if err := srv.Close(); !errors.Is(err, errPoolDeviceGone) {
		t.Fatalf("close returned %v, want the final sweep's device death", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v, want nil", err)
	}
	outs := srv.TakeOutcomes()
	checkConservation(t, srv, outs)
	for _, o := range outs {
		want := OutcomeCancelled
		if o.Lane >= 0 {
			want = OutcomeFailed
		}
		if o.Outcome != want {
			t.Fatalf("query %d (lane %d) ended %v, want %v", o.ID, o.Lane, o.Outcome, want)
		}
	}
	if st := srv.Stats(); st.Failed != 4 || st.Cancelled != 4 {
		t.Fatalf("stats %+v, want 4 failed in flight and 4 cancelled in the queue", st)
	}
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
	pool := newQueryPool(br, bfs.DegreeTable(list.NumVertices, bg.Degree))
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

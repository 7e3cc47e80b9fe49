package semiext

import (
	"sync"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// TestCacheBudgetIsAllPageCache pins the one-budget rule: CacheBytes is the
// page cache's, whole pages of it, with or without compression, and
// DRAMBytes is that plus the DRAM index copies and nothing else.
func TestCacheBudgetIsAllPageCache(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, _, _ := buildGraphs(t, 8, topo)
	var idxBytes int64
	for _, g := range fg.PerNode {
		idxBytes += int64(len(g.Index)) * 8
	}
	for _, compress := range []bool{false, true} {
		for _, budget := range []int64{16 << 10, 164 << 10, 1 << 20} {
			dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
			sf, err := OffloadForward(fg, memFactory(dev), nil, ForwardOptions{
				Compress: compress, CacheBytes: budget, IndexInDRAM: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := budget / nvm.DefaultChunkSize * nvm.DefaultChunkSize
			if got := sf.Cache().CapacityBytes(); got != want {
				t.Errorf("compress=%v CacheBytes=%d: page cache holds %d bytes, want %d", compress, budget, got, want)
			}
			if got := sf.DRAMBytes(); got != want+idxBytes {
				t.Errorf("compress=%v CacheBytes=%d: DRAMBytes %d, want %d", compress, budget, got, want+idxBytes)
			}
			sf.Close()
		}
	}
}

// TestCachedForwardRoundTrip checks that a cached offload returns exactly
// the in-DRAM adjacencies, that repeat passes hit the cache, and that the
// cache makes the second pass cheaper in virtual time.
func TestCachedForwardRoundTrip(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, _, _ := buildGraphs(t, 9, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	sf, err := OffloadForward(fg, memFactory(dev), nil, ForwardOptions{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.Cache() == nil {
		t.Fatal("CacheBytes > 0 should attach a page cache")
	}
	if sf.DRAMBytes() < 1<<22 {
		t.Fatalf("DRAMBytes %d should include the cache budget", sf.DRAMBytes())
	}

	clock := vtime.NewClock(0)
	r := NewForwardReader(sf, clock)
	var passTime [2]vtime.Duration
	for pass := 0; pass < 2; pass++ {
		start := clock.Now()
		for k, g := range fg.PerNode {
			for v := int64(0); v < g.NumVertices; v++ {
				got, err := r.Neighbors(k, v)
				if err != nil {
					t.Fatalf("pass %d node %d vertex %d: %v", pass, k, v, err)
				}
				want := g.Value[g.Index[v]:g.Index[v+1]]
				if len(got) != len(want) {
					t.Fatalf("pass %d node %d vertex %d: %d neighbors, want %d",
						pass, k, v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pass %d node %d vertex %d neighbor %d: %d != %d",
							pass, k, v, i, got[i], want[i])
					}
				}
			}
		}
		passTime[pass] = clock.Now() - start
	}
	st := sf.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected cache hits over two full passes, got %+v", st)
	}
	// The graph fits in the 4 MiB budget, so pass 2 is all DRAM hits and
	// must be far cheaper than the cold pass.
	if passTime[1]*4 > passTime[0] {
		t.Fatalf("warm pass (%v) should be <1/4 the cold pass (%v)", passTime[1], passTime[0])
	}
}

// TestCachedForwardReadahead checks that sequential expansion with
// readahead turns value-store demand misses into prefetch hits.
func TestCachedForwardReadahead(t *testing.T) {
	topo := numa.Topology{Nodes: 1, CoresPerNode: 2}
	fg, _, _ := buildGraphs(t, 9, topo)
	run := func(ra int) (nvm.CacheStats, vtime.Duration) {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		sf, err := OffloadForward(fg, memFactory(dev), nil,
			ForwardOptions{CacheBytes: 1 << 22, ReadaheadBlocks: ra})
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		clock := vtime.NewClock(0)
		r := NewForwardReader(sf, clock)
		for v := int64(0); v < fg.PerNode[0].NumVertices; v++ {
			if _, err := r.Neighbors(0, v); err != nil {
				t.Fatal(err)
			}
		}
		return sf.CacheStats(), clock.Now()
	}
	plain, plainTime := run(0)
	ahead, aheadTime := run(4)
	if ahead.Prefetches == 0 || ahead.PrefetchHits == 0 {
		t.Fatalf("readahead produced no prefetch hits: %+v", ahead)
	}
	if ahead.Misses >= plain.Misses {
		t.Fatalf("readahead should convert demand misses to prefetch hits: %d -> %d",
			plain.Misses, ahead.Misses)
	}
	if aheadTime >= plainTime {
		t.Fatalf("readahead pass (%v) should beat plain pass (%v)", aheadTime, plainTime)
	}
}

// corruptingStore flips a bit on the first read of each block, modeling a
// transient corruption the checksum layer must catch before the cache can
// memoize it.
type corruptingStore struct {
	*nvm.MemStore
	mu   sync.Mutex
	seen map[int64]bool
}

func (s *corruptingStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if err := s.MemStore.ReadAt(clock, p, off); err != nil {
		return err
	}
	s.mu.Lock()
	first := !s.seen[off]
	s.seen[off] = true
	s.mu.Unlock()
	if first && len(p) > 0 {
		p[0] ^= 0x40
	}
	return nil
}

// TestCachedForwardChecksumRecovery stacks retry -> cache -> checksum ->
// corrupting media and checks that every adjacency still reads back
// correctly: the corrupt fill is detected, never cached, and the retry's
// second read is served clean.
func TestCachedForwardChecksumRecovery(t *testing.T) {
	topo := numa.Topology{Nodes: 1, CoresPerNode: 2}
	fg, _, _ := buildGraphs(t, 8, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) {
		cst := &corruptingStore{MemStore: nvm.NewMemStore(dev, chunk), seen: make(map[int64]bool)}
		return nvm.WrapChecksum(cst, chunk)
	}
	sf, err := OffloadForward(fg, mk, nil, ForwardOptions{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()

	clock := vtime.NewClock(0)
	r := NewForwardReader(sf, clock)
	g := fg.PerNode[0]
	for v := int64(0); v < g.NumVertices; v++ {
		got, err := r.Neighbors(0, v)
		if err != nil {
			t.Fatalf("vertex %d: %v", v, err)
		}
		want := g.Value[g.Index[v]:g.Index[v+1]]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d: %d != %d (corrupt block cached?)",
					v, i, got[i], want[i])
			}
		}
	}
	if sf.LayerStats().Get("retry", "retries") == 0 {
		t.Fatal("expected retries from first-read corruption")
	}
	// Second pass: everything is cached clean; no new retries may occur.
	retries := sf.LayerStats().Get("retry", "retries")
	for v := int64(0); v < g.NumVertices; v++ {
		if _, err := r.Neighbors(0, v); err != nil {
			t.Fatalf("warm vertex %d: %v", v, err)
		}
	}
	if got := sf.LayerStats().Get("retry", "retries"); got != retries {
		t.Fatalf("warm pass retried (%d -> %d): corrupt data must not be cached",
			retries, got)
	}
}

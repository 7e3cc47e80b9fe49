package semiext

import (
	"fmt"
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// TestFullStackReadSteadyStateAllocs is the whole-stack sibling of
// TestStreamIndexedNeighborsNoSteadyStateAllocs: ForwardReader.Neighbors
// through metrics → retry → async → cache → mirror → checksum → base, with
// a working set eight times the page cache so most calls miss and evict,
// multi-block adjacencies go through the coalescing queue and hubs trigger
// readahead. After one pass over the vertices has sized the reader's
// buffers and filled the cache's frames, a call allocates nothing, on raw
// and on compressed adjacency.
func TestFullStackReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// SCALE 14: below it no compressed hub's encoded list spans a block, so
	// the compressed stack would never issue readahead.
	fg, _, _ := buildGraphs(t, 14, numa.Topology{Nodes: 1, CoresPerNode: 2})
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			fullStackReadAllocs(t, fg, compress)
		})
	}
}

func fullStackReadAllocs(t *testing.T, fg *csr.ForwardGraph, compress bool) {
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	opts := ForwardOptions{
		Compress: compress, QueueDepth: 8, ReadaheadBlocks: 2, Replicas: 2, Checksums: true,
	}
	// Offload once uncached to learn the NVM footprint.
	probe, err := OffloadForward(fg, memFactory(dev), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CacheBytes = probe.NVMBytes() / 8
	probe.Close()
	sf, err := OffloadForward(fg, memFactory(dev), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	kinds := map[string]bool{}
	nvm.WalkStack(sf.PerNode[0].ValueStore, func(st nvm.Storage) {
		if l, ok := st.(nvm.Layer); ok {
			kinds[l.Kind()] = true
		}
	})
	for _, kind := range []string{"metrics", "retry", "async", "cache", "mirror", "checksum"} {
		if !kinds[kind] {
			t.Fatalf("the value stack has no %s layer: %v", kind, kinds)
		}
	}

	r := NewForwardReader(sf, vtime.NewClock(0))
	n := fg.PerNode[0].NumVertices // 16384
	var v, edges int64
	next := func() {
		nbrs, err := r.Neighbors(0, v)
		if err != nil {
			t.Fatalf("vertex %d: %v", v, err)
		}
		edges += int64(len(nbrs))
		// A stride coprime to n: every vertex once per n calls, without the
		// locality of walking the adjacency arrays in order.
		v = (v + 389) % n
	}
	for i := int64(0); i < n; i++ {
		next()
	}
	before := sf.CacheStats()
	if allocs := testing.AllocsPerRun(2000, next); allocs > 0 {
		t.Errorf("ForwardReader.Neighbors allocates %.2f objects per steady-state call, want 0", allocs)
	}
	d := sf.CacheStats().Sub(before)
	if d.Evictions < 100 || d.Hits == 0 || d.Prefetches == 0 || edges == 0 {
		t.Errorf("the measured calls did not churn the cache: %v, %d edges", d, edges)
	}
}

package semiext

import (
	"fmt"
	"slices"
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

// TestOverlayReadSteadyStateAllocs reads vertices with pending adds and
// deletes through both merge paths, ForwardReader.Neighbors (adds
// interleaved into the sorted stream) and BackwardScanner.Scan (deletions
// suppressed in the DRAM prefix and the NVM tail, adds after the tail), raw
// and compressed. After one pass has sized the readers' buffers, a read
// allocates nothing: the overlay hands out the snapshot it stores. Before,
// every read of a dirty vertex allocated its snapshot.
func TestOverlayReadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	fg, bg, part := buildGraphs(t, 10, topo)
	n := int64(part.N)
	for _, tc := range []struct {
		name string
		fo   ForwardOptions
		bo   BackwardOptions
	}{
		{"raw", ForwardOptions{}, BackwardOptions{KeepEdges: 4}},
		{"compressed", ForwardOptions{Compress: true, CacheBytes: 64 << 10, IndexInDRAM: true},
			BackwardOptions{KeepEdges: 4, Compress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
			sf, err := OffloadForward(fg, memFactory(dev), nil, tc.fo)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			tc.bo.Cache = sf.Cache()
			hb, err := OffloadBackward(bg, memFactory(dev), nil, tc.bo)
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			fo, bo := NewDeltaOverlay(), NewDeltaOverlay()
			sf.SetOverlay(fo)
			hb.SetOverlay(bo)
			edit := func(a, b int64, del bool) {
				for _, e := range [2][2]int64{{a, b}, {b, a}} {
					fslot := sf.OverlaySlot(part.NodeOf(int(e[1])), e[0])
					if del {
						fo.Delete(fslot, e[1])
						bo.Delete(e[0], e[1])
					} else {
						fo.Insert(fslot, e[1])
						bo.Insert(e[0], e[1])
					}
				}
			}
			// Every dirty vertex with an NVM tail loses its first and
			// last stored neighbor (a DRAM-prefix entry and a tail entry)
			// and gains an edge to the vertex farthest from it.
			var dirty []int64
			for v := int64(0); v < n && len(dirty) < 64; v++ {
				k := part.NodeOf(int(v))
				nbs := bg.PerNode[k].Neighbors(v)
				if hb.PerNode[k].Degree(v) <= int64(tc.bo.KeepEdges)+1 || slices.Contains(nbs, n-1-v) || v == n-1-v {
					continue
				}
				first, last := nbs[0], nbs[len(nbs)-1]
				if first == v || last == v || first == last || slices.Contains(dirty, first) || slices.Contains(dirty, last) {
					continue
				}
				edit(v, first, true)
				edit(v, last, true)
				edit(v, n-1-v, false)
				dirty = append(dirty, v)
			}
			if len(dirty) < 32 {
				t.Fatalf("only %d dirty vertices with NVM tails", len(dirty))
			}

			clock := vtime.NewClock(0)
			r := NewForwardReader(sf, clock)
			sc := NewBackwardScanner(hb, clock)
			var i int
			var edges int64
			count := func(int64) bool { edges++; return true }
			read := func() {
				v := dirty[i%len(dirty)]
				i++
				for k := range sf.PerNode {
					nbs, err := r.Neighbors(k, v)
					if err != nil {
						t.Fatal(err)
					}
					edges += int64(len(nbs))
				}
				if _, err := sc.Scan(part.NodeOf(int(v)), v, count); err != nil {
					t.Fatal(err)
				}
			}
			for range dirty {
				read()
			}
			if allocs := testing.AllocsPerRun(2*len(dirty), read); allocs > 0 {
				t.Errorf("reading a dirty vertex allocates %.2f objects, want 0", allocs)
			}
			if sc.NVMEdgesScanned == 0 || edges == 0 {
				t.Errorf("the reads streamed %d edges, %d from NVM tails", edges, sc.NVMEdgesScanned)
			}
		})
	}
}

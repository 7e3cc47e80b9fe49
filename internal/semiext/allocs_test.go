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
	before := sf.Cache().Stats()
	if allocs := testing.AllocsPerRun(2000, next); allocs > 0 {
		t.Errorf("ForwardReader.Neighbors allocates %.2f objects per steady-state call, want 0", allocs)
	}
	d := sf.Cache().Stats().Sub(before)
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
			count := func(nbs []int64) (int, bool) { edges += int64(len(nbs)); return len(nbs), false }
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
				if _, _, err := sc.Scan(part.NodeOf(int(v)), v, count); err != nil {
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

			// An update cycle (an add and the delete that annihilates it)
			// into a dirty slot copies the slot's add list twice; into a
			// clean slot below the highest dirty one, once.
			clean := int64(0)
			for slices.Contains(dirty, clean) {
				clean++
			}
			for _, c := range []struct {
				slot int64
				want float64
			}{{dirty[len(dirty)-1], 2}, {clean, 1}} {
				cycle := func() { bo.Insert(c.slot, n); bo.Delete(c.slot, n) }
				if allocs := testing.AllocsPerRun(100, cycle); allocs > c.want {
					t.Errorf("an update cycle into slot %d allocates %.2f objects, want <= %v", c.slot, allocs, c.want)
				}
			}
		})
	}
}

// TestCompressedTailRestAllocs: Rest over compressed NVM tails behind a
// warm page cache allocates nothing, from a fresh scanner's first call on —
// whole tails across several decoded batches, and tails stopped inside a
// batch. The scanner's chunk and batch buffers are sized by
// NewBackwardScanner, so a buffer grown on first use fails here too: each
// measured run builds a fresh scanner and scans every tail with it, and
// must allocate no more than building the scanner alone.
func TestCompressedTailRestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, bg, part := buildGraphs(t, 12, numa.Topology{Nodes: 2, CoresPerNode: 2})
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	cache := nvm.NewPageCache(4<<20, nvm.DefaultChunkSize, numa.CostModel{})
	hb, err := OffloadBackward(bg, memFactory(dev), nil, BackwardOptions{KeepEdges: 8, Compress: true, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	clock := vtime.NewClock(0)
	sc := NewBackwardScanner(hb, clock)
	var tails []int64
	var longest int64
	for v := int64(0); v < int64(part.N); v++ {
		k := part.NodeOf(int(v))
		if _, _, rest := sc.Prefix(k, v); rest {
			tails = append(tails, v)
			longest = max(longest, hb.PerNode[k].Degree(v)-8)
		}
	}
	if len(tails) < 100 || longest <= nvm.DefaultChunkSize/8 {
		t.Fatalf("%d tails, the longest %d neighbors: want some spanning several batches", len(tails), longest)
	}
	var edges int64
	all := func(nbs []int64) (int, bool) { edges += int64(len(nbs)); return len(nbs), false }
	// Stops at the 600th neighbor of a tail, inside a later batch.
	var seen int
	stop := func(nbs []int64) (int, bool) {
		if seen+len(nbs) >= 600 {
			e := 600 - seen
			seen = 0
			return e, true
		}
		seen += len(nbs)
		return len(nbs), false
	}
	scan := func(fn func([]int64) (int, bool)) {
		for _, v := range tails {
			seen = 0
			if _, _, err := sc.Rest(part.NodeOf(int(v)), v, fn); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan(all) // warms the page cache
	if edges != hb.TailEdges() {
		t.Fatalf("streamed %d tail edges, the graph has %d", edges, hb.TailEdges())
	}
	fresh := func() { sc = NewBackwardScanner(hb, clock) }
	scanFresh := func() {
		fresh()
		scan(all)
		scan(stop)
	}
	build := testing.AllocsPerRun(20, fresh)
	if allocs := testing.AllocsPerRun(20, scanFresh); allocs > build {
		t.Errorf("a fresh scanner and its Rest over %d warm compressed tails, twice, allocate %.0f objects; the scanner alone %.0f",
			len(tails), allocs, build)
	}
}

// TestDirtyPrefixScanAllocs: Scan widens a dirty vertex's 32-bit DRAM
// prefix through the scanner's batch buffer a batch at a time, so a prefix
// longer than the buffer costs no allocation — whole, and stopped inside
// its second batch — for the whole graph in DRAM and for compressed tails
// behind a prefix wider than a decoded batch.
func TestDirtyPrefixScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, bg, part := buildGraphs(t, 12, numa.Topology{Nodes: 2, CoresPerNode: 2})
	for _, bo := range []BackwardOptions{{}, {KeepEdges: 3 * tailBatch, Compress: true}} {
		t.Run(fmt.Sprintf("keep=%d", bo.KeepEdges), func(t *testing.T) {
			dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
			hb, err := OffloadBackward(bg, memFactory(dev), nil, bo)
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			sc := NewBackwardScanner(hb, vtime.NewClock(0))
			// The hub: the vertex with the longest DRAM prefix, made dirty
			// by deleting its second stored neighbor (every copy of it).
			hub, longest := int64(-1), int64(0)
			for v := int64(0); v < int64(part.N); v++ {
				node := hb.PerNode[part.NodeOf(int(v))]
				i := v - node.Base
				if l := node.DRAMIndex[i+1] - node.DRAMIndex[i]; l > longest {
					hub, longest = v, l
				}
			}
			if longest <= int64(len(sc.valBuf)) {
				t.Fatalf("the longest DRAM prefix has %d entries, want more than the %d-entry batch", longest, len(sc.valBuf))
			}
			k := part.NodeOf(int(hub))
			stored := bg.Neighbors(hub)
			o := NewDeltaOverlay()
			o.Delete(hub, stored[1])
			hb.SetOverlay(o)
			want := int64(len(stored))
			for _, nb := range stored {
				if nb == stored[1] {
					want--
				}
			}
			var edges int64
			all := func(nbs []int64) (int, bool) { edges += int64(len(nbs)); return len(nbs), false }
			stopAt := int64(len(sc.valBuf)) + 2 // inside the second batch
			var seen int64
			stop := func(nbs []int64) (int, bool) {
				if seen+int64(len(nbs)) >= stopAt {
					e := stopAt - seen
					seen = 0
					return int(e), true
				}
				seen += int64(len(nbs))
				return len(nbs), false
			}
			// Scan counts every stored entry it walks, deleted ones
			// included: the stop lands on the stopAt-th kept one.
			var kept, stopWalked int64
			for i, nb := range stored {
				if nb != stored[1] {
					if kept++; kept == stopAt {
						stopWalked = int64(i + 1)
						break
					}
				}
			}
			scan := func() {
				edges = 0
				if d, nv, err := sc.Scan(k, hub, all); err != nil || d+nv != int64(len(stored)) || edges != want {
					t.Fatalf("Scan of the hub: %d examined, %d handed over, err %v; want %d and %d", d+nv, edges, err, len(stored), want)
				}
				if d, nv, err := sc.Scan(k, hub, stop); err != nil || d+nv != stopWalked {
					t.Fatalf("stopping Scan of the hub: %d examined, err %v; want %d", d+nv, err, stopWalked)
				}
			}
			scan() // reads the tail into the device's store once
			if allocs := testing.AllocsPerRun(100, scan); allocs > 0 {
				t.Errorf("Scan of a dirty vertex with a %d-entry prefix allocates %.2f objects, want 0", longest, allocs)
			}
		})
	}
}

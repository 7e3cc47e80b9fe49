package semiext

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// sharedMemFactory returns a factory that hands back the same MemStore
// for the same name on every call, emulating durable media that survives
// a handle rebuild (MemStore.Close is a no-op).
func sharedMemFactory(dev *nvm.Device) StoreFactory {
	var mu sync.Mutex
	stores := map[string]*nvm.MemStore{}
	return func(name string, chunk int) (nvm.Storage, error) {
		mu.Lock()
		defer mu.Unlock()
		if st, ok := stores[name]; ok {
			return st, nil
		}
		st := nvm.NewNamedMemStore(name, dev, chunk)
		stores[name] = st
		return st, nil
	}
}

func TestOverlayInsertDeleteAnnihilation(t *testing.T) {
	o := NewDeltaOverlay()
	if !o.Empty() {
		t.Fatal("new overlay not empty")
	}
	// Pending add annihilated by delete.
	o.Insert(5, 42)
	o.Delete(5, 42)
	if !o.Empty() {
		t.Fatal("insert+delete did not annihilate")
	}
	// Deletion of a stored edge annihilated by re-insert.
	o.Delete(5, 7)
	if !o.IsDeleted(5, 7) {
		t.Fatal("delete not recorded")
	}
	o.Insert(5, 7)
	if o.IsDeleted(5, 7) || !o.Empty() {
		t.Fatal("delete+insert did not annihilate")
	}
	// Adds keep sorted order; duplicates are no-ops.
	for _, nb := range []int64{9, 3, 11, 3} {
		o.Insert(1, nb)
	}
	if got := o.Adds(1); len(got) != 3 || got[0] != 3 || got[1] != 9 || got[2] != 11 {
		t.Fatalf("adds = %v, want [3 9 11]", got)
	}
	if d := o.DegreeDelta(1); d != 3 {
		t.Fatalf("degree delta = %d, want 3", d)
	}
	adds, dels := o.Counts()
	if adds != 3 || dels != 0 {
		t.Fatalf("counts = (%d, %d), want (3, 0)", adds, dels)
	}
	seen := 0
	o.ForEach(func(slot, nb int64, del bool) {
		if slot != 1 || del {
			t.Fatalf("unexpected edit (%d, %d, %v)", slot, nb, del)
		}
		seen++
	})
	if seen != 3 {
		t.Fatalf("ForEach visited %d edits, want 3", seen)
	}
	o.Clear()
	if !o.Empty() || o.Adds(1) != nil {
		t.Fatal("Clear left edits behind")
	}
}

// TestOverlayMergedReads drives a batch of random insertions/deletions
// through forward and backward overlays and checks every read path —
// sorted per-node forward lists, unordered backward scans, and degrees —
// against a DRAM reference.
func TestOverlayMergedReads(t *testing.T) {
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
			topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
			fg, bg, part := buildGraphs(t, 9, topo)
			n := int64(part.N)

			// Reference merged adjacency as a multiset per vertex (the CSR
			// keeps duplicate edges, as the Graph500 construction does).
			adj := make([]map[int64]int, n)
			for v := int64(0); v < n; v++ {
				adj[v] = map[int64]int{}
				for k := range fg.PerNode {
					for _, nb := range fg.PerNode[k].Neighbors(v) {
						adj[v][nb]++
					}
				}
			}

			sf, err := OffloadForward(fg, memFactory(nil), nil, tc.fo)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			hb, err := OffloadBackward(bg, memFactory(nil), nil, tc.bo)
			if err != nil {
				t.Fatal(err)
			}
			defer hb.Close()
			fo, bo := NewDeltaOverlay(), NewDeltaOverlay()
			sf.SetOverlay(fo)
			hb.SetOverlay(bo)

			apply := func(u, v int64, del bool) {
				for _, e := range [][2]int64{{u, v}, {v, u}} {
					a, b := e[0], e[1]
					fslot := sf.OverlaySlot(part.NodeOf(int(b)), a)
					if del {
						fo.Delete(fslot, b)
						bo.Delete(a, b)
						delete(adj[a], b)
					} else {
						fo.Insert(fslot, b)
						bo.Insert(a, b)
						adj[a][b] = 1
					}
				}
			}
			// Deterministic mixed batch: walk vertex pairs and toggle the
			// edge (delete present ones, insert absent ones), touching
			// hubs, leaves, and isolated vertices alike. Duplicated base
			// edges are left alone so the expected multiset stays exact.
			rng := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < 600; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				u := int64(rng>>33) % n
				rng = rng*6364136223846793005 + 1442695040888963407
				v := int64(rng>>33) % n
				if u == v || adj[u][v] > 1 {
					continue
				}
				apply(u, v, adj[u][v] == 1)
			}

			clock := vtime.NewClock(0)
			r := NewForwardReader(sf, clock)
			sc := NewBackwardScanner(hb, clock)
			// Two passes: the second reads through a warm page cache.
			for pass := 0; pass < 2; pass++ {
				for v := int64(0); v < n; v++ {
					var got []int64
					for k := range sf.PerNode {
						nbs, err := r.Neighbors(k, v)
						if err != nil {
							t.Fatal(err)
						}
						for i := 1; i < len(nbs); i++ {
							if nbs[i-1] > nbs[i] {
								t.Fatalf("pass %d v=%d k=%d: merged list not sorted: %v", pass, v, k, nbs)
							}
						}
						for _, nb := range nbs {
							if part.NodeOf(int(nb)) != k {
								t.Fatalf("v=%d: neighbor %d served by wrong node %d", v, nb, k)
							}
						}
						got = append(got, nbs...)
					}
					var want []int64
					for nb, c := range adj[v] {
						for j := 0; j < c; j++ {
							want = append(want, nb)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					if len(got) != len(want) {
						t.Fatalf("pass %d v=%d: forward degree %d, want %d", pass, v, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("pass %d v=%d: forward neighbors %v, want %v", pass, v, got, want)
						}
					}

					k := part.NodeOf(int(v))
					seen := map[int64]int{}
					var scanned int64
					if _, err := sc.Scan(k, v, func(nb int64) bool {
						seen[nb]++
						scanned++
						return true
					}); err != nil {
						t.Fatal(err)
					}
					for nb, c := range adj[v] {
						if seen[nb] != c {
							t.Fatalf("pass %d v=%d: backward scan saw %d copies of %d, want %d", pass, v, seen[nb], nb, c)
						}
					}
					if int64(len(want)) != scanned {
						t.Fatalf("pass %d v=%d: backward scan emitted %d neighbors, want %d", pass, v, scanned, len(want))
					}
					if d := hb.Degree(v); d != scanned {
						t.Fatalf("v=%d: merged degree %d, want %d", v, d, scanned)
					}
				}
			}
		})
	}
}

// TestOpenForwardRoundTrip offloads a forward graph onto shared media,
// reopens it with OpenForward (no writes), and checks every adjacency
// reads back identically — the crash-recovery handle rebuild.
func TestOpenForwardRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ForwardOptions
	}{
		{"raw", ForwardOptions{IndexInDRAM: true, Checksums: true, StoreSuffix: ".g1"}},
		{"compressed", ForwardOptions{Compress: true, CacheBytes: 32 << 10, StoreSuffix: ".g2", Replicas: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
			fg, _, part := buildGraphs(t, 8, topo)
			mk := sharedMemFactory(nil)
			sf, err := OffloadForward(fg, mk, nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			stored := sf.ValueBytesStored
			if err := sf.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenForward(part, mk, vtime.NewClock(0), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.ValueBytesStored != stored {
				t.Fatalf("reopened stored bytes %d, want %d", re.ValueBytesStored, stored)
			}
			r := NewForwardReader(re, vtime.NewClock(0))
			for v := int64(0); v < int64(part.N); v++ {
				for k := range fg.PerNode {
					want := fg.PerNode[k].Neighbors(v)
					got, err := r.Neighbors(k, v)
					if err != nil {
						t.Fatalf("v=%d k=%d: %v", v, k, err)
					}
					if len(got) != len(want) {
						t.Fatalf("v=%d k=%d: %d neighbors, want %d", v, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("v=%d k=%d: neighbors %v, want %v", v, k, got, want)
						}
					}
				}
			}
		})
	}
}

// TestOverlaySnapshotsUnderConcurrentEdits edits slots while readers walk
// the snapshots they were handed: under the race detector a mutation that
// wrote into a handed-out snapshot instead of replacing it is a reported
// race, and every snapshot a reader sees must stay sorted.
func TestOverlaySnapshotsUnderConcurrentEdits(t *testing.T) {
	o := NewDeltaOverlay()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for slot := int64(0); slot < 4; slot++ {
					d := o.delta(slot)
					if !slices.IsSorted(d.adds) || !slices.IsSorted(d.dels) {
						t.Errorf("slot %d snapshot not sorted: %+v", slot, d)
						return
					}
				}
			}
		}()
	}
	for i := int64(0); i < 4000; i++ {
		slot, nb := i%4, (i*7)%64
		if i%3 == 0 {
			o.Delete(slot, nb)
		} else {
			o.Insert(slot, nb)
		}
	}
	close(stop)
	wg.Wait()
}

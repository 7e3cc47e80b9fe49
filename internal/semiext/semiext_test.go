package semiext

import (
	"path/filepath"
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

func buildGraphs(t *testing.T, scale int, topo numa.Topology) (*csr.ForwardGraph, *csr.BackwardGraph, *numa.Partition) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	return fg, bg, part
}

func memFactory(dev *nvm.Device) StoreFactory {
	return func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
}

func fileFactory(t *testing.T, dev *nvm.Device) StoreFactory {
	dir := t.TempDir()
	return func(name string, chunk int) (nvm.Storage, error) {
		return nvm.CreateFileStore(filepath.Join(dir, name+".bin"), dev, chunk)
	}
}

func TestOffloadForwardRoundTrip(t *testing.T) {
	topo := numa.Topology{Nodes: 3, CoresPerNode: 2}
	fg, _, _ := buildGraphs(t, 9, topo)
	for _, backing := range []string{"mem", "file"} {
		t.Run(backing, func(t *testing.T) {
			dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
			var mk StoreFactory
			if backing == "mem" {
				mk = memFactory(dev)
			} else {
				mk = fileFactory(t, dev)
			}
			sf, err := OffloadForward(fg, mk, nil, ForwardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			clock := vtime.NewClock(0)
			r := NewForwardReader(sf, clock)
			n := fg.PerNode[0].NumVertices
			for v := int64(0); v < n; v += 7 {
				for k := range fg.PerNode {
					want := fg.PerNode[k].Neighbors(v)
					got, err := r.Neighbors(k, v)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("v=%d k=%d: %d neighbors, want %d",
							v, k, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("v=%d k=%d neighbor %d: %d != %d",
								v, k, i, got[i], want[i])
						}
					}
				}
			}
			if clock.Now() == 0 {
				t.Fatal("reads not charged to clock")
			}
			if r.EdgesRead == 0 || r.IndexReads == 0 {
				t.Fatal("reader counters not advancing")
			}
			if dev.Snapshot().Reads == 0 {
				t.Fatal("device saw no requests")
			}
		})
	}
}

func TestOffloadForwardBytes(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, _, _ := buildGraphs(t, 8, topo)
	sf, err := OffloadForward(fg, memFactory(nil), nil, ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.NVMBytes() != fg.Bytes() {
		t.Fatalf("NVM bytes %d != forward graph bytes %d", sf.NVMBytes(), fg.Bytes())
	}
	if sf.DRAMBytes() != 0 {
		t.Fatalf("DRAM bytes %d without IndexInDRAM", sf.DRAMBytes())
	}
}

func TestOffloadForwardIndexInDRAM(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, _, _ := buildGraphs(t, 8, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	sf, err := OffloadForward(fg, memFactory(dev), nil, ForwardOptions{IndexInDRAM: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	var wantIdx int64
	for _, g := range fg.PerNode {
		wantIdx += int64(len(g.Index)) * 8
	}
	if sf.DRAMBytes() != wantIdx {
		t.Fatalf("DRAM bytes %d, want %d (index arrays)", sf.DRAMBytes(), wantIdx)
	}
	// Reads must match the DRAM layout and issue no index requests.
	dev.Reset()
	r := NewForwardReader(sf, vtime.NewClock(0))
	got, err := r.Neighbors(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := fg.PerNode[0].Neighbors(3)
	if len(got) != len(want) {
		t.Fatalf("neighbors: %v vs %v", got, want)
	}
	if r.IndexReads != 0 {
		t.Fatalf("index reads went to NVM despite DRAM index: %d", r.IndexReads)
	}
}

func TestForwardReaderZeroDegree(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, bg, _ := buildGraphs(t, 9, topo)
	sf, err := OffloadForward(fg, memFactory(nil), nil, ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	// Find an isolated vertex.
	var iso int64 = -1
	for v := int64(0); v < fg.PerNode[0].NumVertices; v++ {
		if bg.Degree(v) == 0 {
			iso = v
			break
		}
	}
	if iso == -1 {
		t.Skip("no isolated vertex at this seed")
	}
	r := NewForwardReader(sf, vtime.NewClock(0))
	got, err := r.Neighbors(0, iso)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("isolated vertex has neighbors %v", got)
	}
}

func TestHybridBackwardLimitZeroShares(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	_, bg, _ := buildGraphs(t, 8, topo)
	hb, err := BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hb.NVMBytes() != 0 || hb.TailEdges() != 0 {
		t.Fatal("limit 0 offloaded data")
	}
	if hb.DRAMEdges() != bg.NumEdgesStored() {
		t.Fatalf("DRAM edges %d != %d", hb.DRAMEdges(), bg.NumEdgesStored())
	}
	// Scanning yields the exact neighbor sequence.
	s := NewBackwardScanner(hb, vtime.NewClock(0))
	for v := int64(0); v < int64(bg.Part.N); v += 13 {
		k := bg.Part.NodeOf(int(v))
		var got []int64
		if _, err := s.Scan(k, v, func(nb int64) bool {
			got = append(got, nb)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := bg.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("v=%d: %d vs %d neighbors", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d neighbor %d mismatch", v, i)
			}
		}
	}
}

func TestHybridBackwardSplit(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	_, bg, part := buildGraphs(t, 9, topo)
	const limit = 4
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	hb, err := BuildHybridBackward(bg, limit, memFactory(dev), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()

	if hb.DRAMEdges()+hb.TailEdges() != bg.NumEdgesStored() {
		t.Fatalf("edge split %d+%d != %d",
			hb.DRAMEdges(), hb.TailEdges(), bg.NumEdgesStored())
	}
	if hb.TailEdges() == 0 {
		t.Fatal("nothing offloaded at limit 4 on a Kronecker graph")
	}
	if hb.NVMBytes() != hb.TailEdges()*8 {
		t.Fatalf("NVM bytes %d != tail edges x8 %d", hb.NVMBytes(), hb.TailEdges()*8)
	}

	// Full scans reproduce the original order: DRAM prefix then tail.
	s := NewBackwardScanner(hb, vtime.NewClock(0))
	for v := int64(0); v < int64(part.N); v += 11 {
		k := part.NodeOf(int(v))
		var got []int64
		if _, err := s.Scan(k, v, func(nb int64) bool {
			got = append(got, nb)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := bg.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("v=%d: %d vs %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d neighbor %d: %d != %d", v, i, got[i], want[i])
			}
		}
		if hb.Degree(v) != bg.Degree(v) {
			t.Fatalf("v=%d degree %d != %d", v, hb.Degree(v), bg.Degree(v))
		}
	}
	if s.NVMEdgesScanned == 0 || s.DRAMEdgesScanned == 0 {
		t.Fatal("scanner tier counters not advancing")
	}
}

func TestHybridBackwardEarlyTermination(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	_, bg, part := buildGraphs(t, 9, topo)
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	hb, err := BuildHybridBackward(bg, 2, memFactory(dev), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	// Find a vertex with a tail.
	var v int64 = -1
	for u := int64(0); u < int64(part.N); u++ {
		if bg.Degree(u) > 2 {
			v = u
			break
		}
	}
	if v == -1 {
		t.Fatal("no vertex with degree > 2")
	}
	dev.Reset()
	s := NewBackwardScanner(hb, vtime.NewClock(0))
	// Stop at the first neighbor: the tail store must not be touched.
	n, err := s.Scan(part.NodeOf(int(v)), v, func(int64) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("examined %d, want 1", n)
	}
	if dev.Snapshot().Reads != 0 {
		t.Fatal("early termination still read the tail from NVM")
	}
	if s.TailFetches != 0 {
		t.Fatal("tail fetched despite early hit")
	}
}

func TestHybridBackwardDegreeOrderPrefix(t *testing.T) {
	// With degree-descending adjacency, every DRAM prefix must hold
	// neighbors of degree >= any tail neighbor.
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	_, bg, part := buildGraphs(t, 9, topo)
	hb, err := BuildHybridBackward(bg, 3, memFactory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	deg := func(v int64) int64 { return bg.Degree(v) }
	s := NewBackwardScanner(hb, vtime.NewClock(0))
	for v := int64(0); v < int64(part.N); v += 17 {
		k := part.NodeOf(int(v))
		var all []int64
		if _, err := s.Scan(k, v, func(nb int64) bool {
			all = append(all, nb)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(all) <= 3 {
			continue
		}
		minPrefix := deg(all[0])
		for _, nb := range all[:3] {
			if deg(nb) < minPrefix {
				minPrefix = deg(nb)
			}
		}
		for _, nb := range all[3:] {
			if deg(nb) > minPrefix {
				t.Fatalf("v=%d: tail neighbor degree %d exceeds prefix min %d",
					v, deg(nb), minPrefix)
			}
		}
	}
}

func TestWriteReadInt64Helpers(t *testing.T) {
	store := nvm.NewMemStore(nil, 0)
	vals := make([]int64, 1500) // crosses chunk boundaries
	for i := range vals {
		vals[i] = int64(i*i) - 42
	}
	if err := writeInt64s(store, nil, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 100)
	scratch := make([]byte, nvm.DefaultChunkSize)
	if err := readInt64s(store, nil, 700, 100, got, &scratch); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[700+i] {
			t.Fatalf("element %d: %d != %d", i, got[i], vals[700+i])
		}
	}
}

func TestOffloadChargesConstructClock(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 1}
	fg, _, _ := buildGraphs(t, 8, topo)
	dev := nvm.NewDevice(nvm.ProfileSSD320, 0)
	clock := vtime.NewClock(0)
	sf, err := OffloadForward(fg, memFactory(dev), clock, ForwardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	// Pinned: the offload is the same sequence of chunk-sized WriteAt calls
	// whatever the host-side encoding loop looks like, so the device sees
	// this many requests and the clock stops at this nanosecond.
	const wantWrites, wantNow = 11, 622316
	if got := dev.Snapshot().Writes; got != wantWrites {
		t.Errorf("device saw %d writes, pinned %d", got, wantWrites)
	}
	if got := clock.Now(); got != wantNow {
		t.Errorf("offload ended at %d ns, pinned %d", got, wantNow)
	}
}

// BenchmarkOffloadForwardScale14 is the paper's defining step on the host
// clock: the raw forward graph written to in-memory PCIe-flash stores.
func BenchmarkOffloadForwardScale14(b *testing.B) {
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))
	fg, err := csr.BuildForward(edgelist.ListSource{List: list}, part)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fg.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		sf, err := OffloadForward(fg, memFactory(dev), vtime.NewClock(0), ForwardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sf.Close()
	}
}

package bfs_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
)

// idlePin is one cell of TestIsolatedVertexPins: the run's virtual time,
// the examined neighbor entries per tier, the tail device's read count and
// mean wait, and an FNV-1a hash of the parent array.
type idlePin struct {
	time, dram, nvmEdges int64
	reads, wait          int64
	tree                 uint64
}

func (p idlePin) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %#x}", p.time, p.dram, p.nvmEdges, p.reads, p.wait, p.tree)
}

// parentHash is an FNV-1a hash of a parent array's little-endian words.
func parentHash(parent []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parent {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// idleGraph is a SCALE-10 Kronecker graph cut to its first n vertices,
// with the backward CSR NETAL-sorted. At n = 1000 the last bitmap word is
// partial, and the two nodes' boundary (vertex 500) falls inside a word.
func idleGraph(t *testing.T, n int64) (*csr.ForwardGraph, *csr.BackwardGraph, *numa.Partition) {
	t.Helper()
	full, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	list := &edgelist.List{NumVertices: n}
	for _, e := range full.Edges {
		if e.U < n && e.V < n {
			list.Edges = append(list.Edges, e)
		}
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.Topology{Nodes: 2, CoresPerNode: 2}, int(n))
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

// tailPlaced returns, from the first bitmap word where an isolated vertex
// lies between two vertices with NVM tails, the tail vertex below it, that
// isolated vertex and the tail vertex above it; ok is false when no word
// has one.
func tailPlaced(hb *semiext.HybridBackward) (below, isolated, above int64, ok bool) {
	n := int64(hb.Part.N)
	hasTail := func(v int64) bool {
		node := hb.PerNode[hb.Part.NodeOf(int(v))]
		i := v - node.Base
		return node.TailIndex != nil && node.TailIndex[i] < node.TailIndex[i+1]
	}
	for base := int64(0); base < n; base += 64 {
		below, isolated = -1, -1
		for v := base; v < min(base+64, n); v++ {
			switch {
			case hasTail(v) && isolated >= 0:
				return below, isolated, v, true
			case hasTail(v):
				below = v
			case below >= 0 && isolated < 0 && hb.Degree(v) == 0:
				isolated = v
			}
		}
	}
	return 0, 0, 0, false
}

// TestIsolatedVertexPins pins the single-source runner over backward
// graphs full of vertices without neighbors, in the words where their
// per-vertex charges land between NVM tail reads: with one DRAM neighbor
// per vertex and PCIe tails, raw and compressed, a charge booked at the
// wrong place in the walk moves a device arrival and so the run's time.
// The overlay cells give an isolated vertex an edge to the tail vertex
// below it and take every stored edge from the one above; the n1000 cells
// end in a
// partial word, over a DRAM-only and an offloaded backward graph. The
// forward graph stays the DRAM CSR without the edits: the pins are about
// the backward scans, not about a valid tree.
func TestIsolatedVertexPins(t *testing.T) {
	type shape struct {
		n        int64
		keep     int
		compress bool
		overlay  bool
	}
	run := func(t *testing.T, s shape, mode bfs.Mode) idlePin {
		fg, bg, part := idleGraph(t, s.n)
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
		hb, err := semiext.OffloadBackward(bg, mk, nil, semiext.BackwardOptions{KeepEdges: s.keep, Compress: s.compress})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hb.Close() })
		if s.keep > 0 {
			below, iso, above, ok := tailPlaced(hb)
			if !ok {
				t.Fatal("no bitmap word has an isolated vertex between two tail vertices")
			}
			if s.overlay {
				o := semiext.NewDeltaOverlay()
				o.Insert(iso, below)
				o.Insert(below, iso)
				for _, nb := range bg.Neighbors(above) {
					if !o.IsDeleted(above, nb) {
						o.Delete(above, nb)
						o.Delete(nb, above)
					}
				}
				hb.SetOverlay(o)
			}
		}
		bwd := bfs.HybridBackwardAccess{HB: hb}
		root := int64(0)
		for bwd.Degree(root) == 0 {
			root++
		}
		r, err := bfs.NewRunner(bfs.DRAMForward{G: fg}, bwd, part,
			bfs.Config{Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}, Alpha: 4, Beta: 40, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		p := idlePin{time: int64(res.Time), tree: parentHash(res.Tree)}
		for _, l := range res.Levels {
			p.dram += l.ExaminedDRAM
			p.nvmEdges += l.ExaminedNVM
		}
		snap := dev.Snapshot()
		p.reads, p.wait = snap.Reads, int64(snap.AvgWait)
		return p
	}

	cases := []struct {
		name  string
		shape shape
		want  [2]idlePin // hybrid, bottom-up-only
	}{
		{"keep1/raw", shape{1024, 1, false, false}, [2]idlePin{
			{121900, 2508, 0, 0, 0, 0x6d88ccec97c6450b}, {53712692, 1965, 15950, 892, 85807, 0xe782b46f3c39494e}}},
		{"keep1/compressed", shape{1024, 1, true, false}, [2]idlePin{
			{121900, 2508, 0, 0, 0, 0x6d88ccec97c6450b}, {53621266, 1965, 15950, 891, 85627, 0xe782b46f3c39494e}}},
		{"keep1/raw/overlay", shape{1024, 1, false, true}, [2]idlePin{
			{257062, 2511, 0, 2, 0, 0xcd867f01f17cce9f}, {53916002, 1968, 15943, 895, 85519, 0x5716286676ebfdf2}}},
		{"keep1/compressed/overlay", shape{1024, 1, true, true}, [2]idlePin{
			{257066, 2511, 0, 2, 0, 0xcd867f01f17cce9f}, {53824582, 1968, 15943, 894, 85340, 0x5716286676ebfdf2}}},
		{"n1000/dram", shape{1000, 0, false, false}, [2]idlePin{
			{120337, 2458, 0, 0, 0, 0x4573324fc754eb78}, {190839, 17386, 0, 0, 0, 0x6eca3e27460ed778}}},
		{"n1000/keep1/raw", shape{1000, 1, false, false}, [2]idlePin{
			{120337, 2458, 0, 0, 0, 0x4573324fc754eb78}, {51849513, 1918, 15468, 865, 87362, 0x6eca3e27460ed778}}},
	}
	for _, c := range cases {
		for i, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeBottomUpOnly} {
			if got := run(t, c.shape, mode); got != c.want[i] {
				t.Errorf("%s, %v: got %v, pinned %v", c.name, mode, got, c.want[i])
			}
		}
	}
}

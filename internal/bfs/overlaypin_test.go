package bfs_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/semiext"
	"semibfs/internal/vp"
)

// overlayPin is one cell of TestOverlayBackwardPins: virtual time, level
// count and one hash over the per-level (direction, claimed, examined DRAM,
// examined NVM, time) sequence, every scanner's (DRAM edges, NVM edges,
// tail fetches) and the run's result.
type overlayPin struct {
	time   int64
	levels int
	hash   uint64
}

func (p overlayPin) String() string {
	return fmt.Sprintf("{%d, %d, %#x}", p.time, p.levels, p.hash)
}

// overlayBackward offloads a SCALE-10 backward graph with one DRAM
// neighbor per vertex, raw or compressed tails, and attaches an overlay
// holding seeded adds and deletions. Deletions hit DRAM-prefix entries and
// tail entries; every edit lands in both directions.
func overlayBackward(t *testing.T, compress bool) (bfs.ForwardAccess, bfs.HybridBackwardAccess, *numa.Partition) {
	t.Helper()
	const keep = 1
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.Topology{Nodes: 2, CoresPerNode: 2}, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	hb, err := semiext.OffloadBackward(bg, mk, nil, semiext.BackwardOptions{KeepEdges: keep, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })

	o := semiext.NewDeltaOverlay()
	n := int64(part.N)
	g := rng.NewXoroshiro128(7)
	for i := 0; i < 160; i++ {
		v := int64(g.Uint64n(uint64(n)))
		nbs := bg.Neighbors(v)
		switch {
		case i%3 != 0 && len(nbs) > keep:
			// One DRAM-prefix entry, or one tail entry.
			j := int(g.Uint64n(keep))
			if i%3 == 2 {
				j = keep + int(g.Uint64n(uint64(len(nbs)-keep)))
			}
			if nb := nbs[j]; nb != v {
				o.Delete(v, nb)
				o.Delete(nb, v)
			}
		default:
			u := int64(g.Uint64n(uint64(n)))
			if u != v && !slices.Contains(nbs, u) {
				o.Insert(v, u)
				o.Insert(u, v)
			}
		}
	}
	if adds, dels := o.Counts(); adds < 64 || dels < 64 {
		t.Fatalf("overlay holds %d adds and %d deletions", adds, dels)
	}
	hb.SetOverlay(o)
	return bfs.DRAMForward{G: fg}, bfs.HybridBackwardAccess{HB: hb}, part
}

// foldScanners folds every scanner's edge counts and tail fetches into h.
func foldScanners(h io.Writer, scanners []bfs.BackwardScan) {
	for _, s := range scanners {
		d, nv := s.(bfs.ScanCounters).Counters()
		fmt.Fprintf(h, "%d,%d,%d|", d, nv, bfs.TailFetches(s))
	}
}

// TestOverlayBackwardPins pins the bottom-up kernels of every engine over
// a partially offloaded backward graph with pending overlay edits: the
// runner in both directions that scan it, a batch session, and the vertex
// programs that pull. The forward graph stays the DRAM CSR without the
// edits; the pins are about the backward scans, not about a valid tree.
func TestOverlayBackwardPins(t *testing.T) {
	levelsHash := func(levels []bfs.LevelStats) hash.Hash64 {
		h := fnv.New64a()
		for _, l := range levels {
			fmt.Fprintf(h, "%d,%d,%d,%d,%d;", l.Direction, l.Claimed, l.ExaminedDRAM, l.ExaminedNVM, int64(l.Time))
		}
		return h
	}
	cfg := func(mode bfs.Mode) bfs.Config {
		return bfs.Config{Topology: numa.Topology{Nodes: 2, CoresPerNode: 2}, Alpha: 4, Beta: 40, Mode: mode}
	}
	type run func(t *testing.T, fwd bfs.ForwardAccess, bwd bfs.HybridBackwardAccess, part *numa.Partition, root int64, roots64 []int64) overlayPin
	runner := func(mode bfs.Mode) run {
		return func(t *testing.T, fwd bfs.ForwardAccess, bwd bfs.HybridBackwardAccess, part *numa.Partition, root int64, _ []int64) overlayPin {
			r, err := bfs.NewRunner(fwd, bwd, part, cfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			h := levelsHash(res.Levels)
			foldScanners(h, r.Scanners)
			d, nv := r.BackwardScanTotals()
			fmt.Fprintf(h, "%d,%d|%v", d, nv, res.Tree)
			return overlayPin{int64(res.Time), len(res.Levels), h.Sum64()}
		}
	}
	session := func(t *testing.T, fwd bfs.ForwardAccess, bwd bfs.HybridBackwardAccess, part *numa.Partition, _ int64, roots64 []int64) overlayPin {
		r, err := bfs.NewBatchRunner(fwd, bwd, part, 64, cfg(bfs.ModeHybrid))
		if err != nil {
			t.Fatal(err)
		}
		s, levels := bfs.StepPinSession(t, r, roots64)
		h := levelsHash(levels)
		foldScanners(h, r.Scanners)
		for l := 0; l < 3; l++ {
			fmt.Fprintf(h, "%v", s.Tree(l))
		}
		return overlayPin{int64(s.Now()), len(levels), h.Sum64()}
	}
	program := func(mk func(bwd bfs.BackwardAccess, n int) vp.Program) run {
		return func(t *testing.T, fwd bfs.ForwardAccess, bwd bfs.HybridBackwardAccess, part *numa.Partition, root int64, _ []int64) overlayPin {
			eng, err := vp.NewEngine(fwd, bwd, part, mk(bwd, part.N), vp.Config{Config: cfg(bfs.ModeHybrid)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			h := levelsHash(res.Levels)
			foldScanners(h, eng.Scanners)
			return overlayPin{int64(res.Time), len(res.Levels), h.Sum64()}
		}
	}
	pagerank := program(func(bwd bfs.BackwardAccess, n int) vp.Program {
		deg := make([]int64, n)
		for v := range deg {
			deg[v] = bwd.Degree(int64(v))
		}
		return vp.NewPageRank(deg, vp.PageRankOptions{Tol: 1e-6})
	})
	components := program(func(bfs.BackwardAccess, int) vp.Program { return vp.NewComponents() })

	cases := []struct {
		name string
		run  run
		want [2]overlayPin // raw, compressed tails
	}{
		{"runner/hybrid", runner(bfs.ModeHybrid), [2]overlayPin{
			{459883, 5, 0x50912011506f322b}, {459888, 5, 0xae1eea7b7bf14ccf}}},
		{"runner/bottom-up-only", runner(bfs.ModeBottomUpOnly), [2]overlayPin{
			{55709777, 6, 0x4774955531ddf236}, {55617441, 6, 0x7b573620cba4a032}}},
		{"session/3-admissions", session, [2]overlayPin{
			{728966, 7, 0xe72e7cf1f67000c7}, {728969, 7, 0x544dfcd5047c6f9}}},
		{"vp/pagerank", pagerank, [2]overlayPin{
			{2051893422, 50, 0x9756efe218252c60}, {2047308272, 50, 0xb8bdff9805e56790}}},
		{"vp/cc", components, [2]overlayPin{
			{204910289, 6, 0x1ec07c9f1471fea4}, {204451774, 6, 0x45d958af5e85cc46}}},
	}
	for _, c := range cases {
		for i, compress := range []bool{false, true} {
			fwd, bwd, part := overlayBackward(t, compress)
			root := int64(0)
			for bwd.Degree(root) == 0 {
				root++
			}
			roots64 := make([]int64, 64)
			for l := range roots64 {
				roots64[l] = (root + int64(l)*5) % int64(part.N)
			}
			if got := c.run(t, fwd, bwd, part, root, roots64); got != c.want[i] {
				t.Errorf("%s, compressed %v: got %v, pinned %v", c.name, compress, got, c.want[i])
			}
		}
	}
}

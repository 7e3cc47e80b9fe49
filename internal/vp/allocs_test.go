package vp_test

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vp"
)

// TestEngineSteadyStateAllocs is the vertex-program sibling of the guards in
// internal/bfs/allocs_test.go: a second and later PageRank run on one Engine
// over DRAM graphs allocates its result and two closures per sweep (the pull
// and the frontier broadcast, one per parallel phase) — no gather probe per
// worker per sweep, which with its captures was most of the parent's 140
// objects on this four-worker, eleven-sweep run.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	fwd, bwd, list, part := buildDRAM(t, 10, 5)
	deg := make([]int64, list.NumVertices)
	for v := range deg {
		deg[v] = bwd.Degree(int64(v))
	}
	eng, err := vp.NewEngine(fwd, bwd, part, vp.NewPageRank(deg, vp.PageRankOptions{Tol: 1e-4}), vpConfig(bfs.ModeHybrid))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := eng.Run(0)
		if err != nil || !res.Converged {
			t.Fatalf("run: %v, %+v; want a converged run", err, res)
		}
	}
	run()
	const limit = 48
	if allocs := testing.AllocsPerRun(10, run); allocs > limit {
		t.Fatalf("Engine.Run allocates %.0f objects per steady-state PageRank run, want <= %d", allocs, limit)
	}
}

// TestPageRankNVMTailsSteadyStateAllocs is the NVM gather's guard, over
// the pr-tails shape at SCALE 12: both graphs compressed on PCIe flash
// behind one page cache, the backward graph keeping 8 edges per vertex in
// DRAM and streaming every longer list's tail from NVM in decoded batches.
// A steady-state run (eight sweeps) allocates 9 objects. The batch buffers
// belong to the scanners, sized at NewEngine, so one grown per tail, per
// level or per run — four workers, so at least four more objects — fails
// here.
func TestPageRankNVMTailsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	eng := newPageRankNVMTails(t, 12, 1e-4)
	var res *vp.Result
	run := func() {
		var err error
		if res, err = eng.Run(0); err != nil || !res.Converged {
			t.Fatalf("run: %v, %+v; want a converged run", err, res)
		}
	}
	run()
	if res.ExaminedNVM == 0 {
		t.Fatal("the run streamed no NVM tail")
	}
	const limit = 9
	if allocs := testing.AllocsPerRun(10, run); allocs > limit {
		t.Fatalf("Engine.Run allocates %.0f objects per steady-state PageRank run over NVM tails, want <= %d", allocs, limit)
	}
}

// newPageRankNVMTails binds PageRank (tolerance tol) to a SCALE-scale graph
// in the pr-tails shape: compressed forward and backward graphs on one
// ioDrive2 behind a 64 KiB page cache, 8 backward edges per vertex in DRAM.
func newPageRankNVMTails(tb testing.TB, scale int, tol float64) *vp.Engine {
	tb.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 16, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(testTopo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		tb.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		tb.Fatal(err)
	}
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{Compress: true, CacheBytes: 64 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sf.Close() })
	hb, err := semiext.OffloadBackward(bg, mk, nil, semiext.BackwardOptions{KeepEdges: 8, Compress: true, Cache: sf.Cache()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { hb.Close() })
	bwd := bfs.HybridBackwardAccess{HB: hb}
	deg := make([]int64, list.NumVertices)
	for v := range deg {
		deg[v] = bwd.Degree(int64(v))
	}
	eng, err := vp.NewEngine(bfs.NVMForward{SF: sf}, bwd, part, vp.NewPageRank(deg, vp.PageRankOptions{Tol: tol}), vpConfig(bfs.ModeHybrid))
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkPageRankNVMTails times one PageRank run (tolerance 1e-6) over
// the pr-tails shape at SCALE 12 — the per-NVM-edge host path: tail
// decode and the program's gather.
func BenchmarkPageRankNVMTails(b *testing.B) {
	eng := newPageRankNVMTails(b, 12, 1e-6)
	if _, err := eng.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// prefixProbe is a program that records the prefix entries PullEdges is
// handed and stops at entry stopAt (never when negative).
type prefixProbe struct {
	vp.Program
	got    []int64
	calls  int
	stopAt int
}

func (p *prefixProbe) PullEdges(w int, v int64, nbs []int64, frontier *bitmap.Bitmap) (int, bool) {
	p.calls++
	for i, nb := range nbs {
		p.got = append(p.got, nb)
		if len(p.got)-1 == p.stopAt {
			return i + 1, true
		}
	}
	return len(nbs), false
}

// TestPullPrefixWidening: the pull kernel hands a 32-bit DRAM prefix to
// PullEdges widened a batch at a time, in order, allocating nothing per
// vertex; a program that stops has been handed at most one batch past its
// stop.
func TestPullPrefixWidening(t *testing.T) {
	nbs := make([]uint32, 3*vp.PullBatch+5)
	for i := range nbs {
		nbs[i] = uint32(1<<32 - 1 - i)
	}
	wide := make([]int64, vp.PullBatch)
	for _, stopAt := range []int{-1, 0, vp.PullBatch + 2, len(nbs) - 1} {
		p := &prefixProbe{stopAt: stopAt, got: make([]int64, 0, len(nbs))}
		seen, stop := vp.PullPrefix(p, 0, 7, nbs, wide, nil)
		want := len(nbs)
		if stopAt >= 0 {
			want = stopAt + 1
		}
		if seen != want || stop != (stopAt >= 0) || len(p.got) != want {
			t.Fatalf("stop at %d: (%d, %v) after %d entries, want (%d, %v)", stopAt, seen, stop, len(p.got), want, stopAt >= 0)
		}
		for i, nb := range p.got {
			if nb != int64(nbs[i]) {
				t.Fatalf("stop at %d: entry %d widened to %d, want %d", stopAt, i, nb, nbs[i])
			}
		}
		if batches := (want + vp.PullBatch - 1) / vp.PullBatch; p.calls != batches {
			t.Errorf("stop at %d: %d PullEdges calls, want %d", stopAt, p.calls, batches)
		}
	}
	if raceEnabled {
		return // the race detector allocates
	}
	p := &prefixProbe{stopAt: -1, got: make([]int64, 0, len(nbs))}
	pull := func() {
		p.got = p.got[:0]
		vp.PullPrefix(p, 0, 7, nbs, wide, nil)
	}
	if allocs := testing.AllocsPerRun(100, pull); allocs > 0 {
		t.Errorf("widening a %d-entry prefix allocates %.2f objects, want 0", len(nbs), allocs)
	}
}

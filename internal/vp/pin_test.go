package vp_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vp"
	"semibfs/internal/vtime"
)

// TestVirtualTimePins is the vertex-program half of the pins in
// internal/bfs/pin_test.go: the three programs on one seeded SCALE-8 DRAM
// graph must reproduce these exact nanoseconds, level counts and per-level
// (direction, claimed, time) sequences. The constants were recorded before the engine's level loop was merged with
// bfs.Runner's; a refactor of the loop must leave them untouched.
func TestVirtualTimePins(t *testing.T) {
	fwd, bwd, list, part := buildDRAM(t, 8, 42)
	n := list.NumVertices
	root := int64(0)
	for bwd.Degree(root) == 0 {
		root++
	}
	deg := make([]int64, n)
	for v := range deg {
		deg[v] = bwd.Degree(int64(v))
	}
	type pin struct {
		time   int64
		levels int
		hash   uint64
	}
	cases := []struct {
		name string
		prog func() vp.Program
		want pin
	}{
		{"bfs", func() vp.Program { return vp.NewBFS() }, pin{53659, 5, 0xf01782630d0ba6c8}},
		{"cc", func() vp.Program { return vp.NewComponents() }, pin{180918, 5, 0x7a368be1d45cedd9}},
		{"pagerank", func() vp.Program { return vp.NewPageRank(deg, vp.PageRankOptions{Tol: 1e-6}) }, pin{619190, 13, 0x53bbd26b2c698e5}},
	}
	for _, c := range cases {
		eng, err := vp.NewEngine(fwd, bwd, part, c.prog(), vpConfig(bfs.ModeHybrid))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, l := range res.Levels {
			fmt.Fprintf(h, "%d,%d,%d;", l.Direction, l.Claimed, int64(l.Time))
		}
		if got := (pin{int64(res.Time), len(res.Levels), h.Sum64()}); got != c.want {
			t.Errorf("%s: got {%d, %d, %#x}, pinned {%d, %d, %#x}", c.name,
				got.time, got.levels, got.hash, c.want.time, c.want.levels, c.want.hash)
		}
	}
}

// nvmPin is one cell of the NVM pins below: virtual time, level count, the
// per-level (direction, claimed, examined DRAM, examined NVM, time) hash and
// the page cache's prefetch count.
type nvmPin struct {
	time       int64
	levels     int
	hash       uint64
	prefetches int64
}

func (p nvmPin) String() string {
	return fmt.Sprintf("{%d, %d, %#x, %d}", p.time, p.levels, p.hash, p.prefetches)
}

func pinOf(res *vp.Result) nvmPin {
	h := fnv.New64a()
	for _, l := range res.Levels {
		fmt.Fprintf(h, "%d,%d,%d,%d,%d;", l.Direction, l.Claimed, l.ExaminedDRAM, l.ExaminedNVM, int64(l.Time))
	}
	return nvmPin{int64(res.Time), len(res.Levels), h.Sum64(), res.Layers.Get("cache", "prefetches")}
}

// TestNVMVirtualTimePins is the vertex-program half of the NVM pins in
// internal/bfs/pin_test.go: the two frontier programs over a forward graph
// read through the paper's raw layout and through every optional layer at
// once, each cell on its own device.
func TestNVMVirtualTimePins(t *testing.T) {
	dram, bwd, _, part := buildDRAM(t, 10, 42)
	root := int64(0)
	for bwd.Degree(root) == 0 {
		root++
	}
	stacks := []struct {
		name string
		opts semiext.ForwardOptions
	}{
		{"raw", semiext.ForwardOptions{}},
		// 12 KiB: the cell pins three pages of page cache.
		{"full", semiext.ForwardOptions{
			Compress: true, CacheBytes: 12 << 10, QueueDepth: 4, FrontierPrefetch: 8,
			Replicas: 2, Checksums: true,
		}},
	}
	cases := []struct {
		name string
		prog func() vp.Program
		mode bfs.Mode
		want [2]nvmPin // by stacks index
	}{
		{"vp/bfs", func() vp.Program { return vp.NewBFS() }, bfs.ModeHybrid, [2]nvmPin{
			{3068594, 5, 0xc41fbaf4cee6225f, 0}, {1538275, 5, 0x5f2b3aae82576a9f, 0}}},
		// The hybrid's push frontiers stay inside one chunk per worker; only
		// a forced push run gets far enough to announce a next chunk.
		{"vp/bfs/top-down-only", func() vp.Program { return vp.NewBFS() }, bfs.ModeTopDownOnly, [2]nvmPin{
			{196461564, 5, 0x630d56a7018d5539, 0}, {2374736, 5, 0xc4a2c1e9bd1fcba7, 16}}},
		{"vp/cc", func() vp.Program { return vp.NewComponents() }, bfs.ModeHybrid, [2]nvmPin{
			{1589587, 5, 0x181111126c16365b, 0}, {1130460, 5, 0xbeaf4ee92bba19fd, 0}}},
	}
	for _, c := range cases {
		for i, stack := range stacks {
			dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
			mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
			sf, err := semiext.OffloadForward(dram.(bfs.DRAMForward).G, mk, nil, stack.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			eng, err := vp.NewEngine(bfs.NVMForward{SF: sf}, bwd, part, c.prog(), vpConfig(c.mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(res); got != c.want[i] {
				t.Errorf("%s over %s: got %v, pinned %v", c.name, stack.name, got, c.want[i])
			}
		}
	}
}

// seedSpy reads a push rescue's seeded claim count from outside the engine:
// on the run's first backward scan (the kernel's first Prefix call) — the
// start of the pull re-run, before any pull claim has landed — it counts
// the bits the rescue left in the engine's next bitmap.
type seedSpy struct {
	bfs.HybridBackwardAccess
	eng    *vp.Engine
	seen   bool
	seeded int
}

func (s *seedSpy) NewScanner(clock *vtime.Clock) bfs.BackwardScan {
	return spyScan{s.HybridBackwardAccess.NewScanner(clock), s}
}

type spyScan struct {
	bfs.BackwardScan
	spy *seedSpy
}

func (s spyScan) Prefix(k int, v int64) ([]int64, bool) {
	if !s.spy.seen {
		s.spy.seen, s.spy.seeded = true, s.spy.eng.NextBM.Count()
	}
	return s.BackwardScan.Prefix(k, v)
}

// TestRescuePins pins one rescued run of the engine per claim contract: the
// raw forward stores die mid push level and the level is re-run as a pull.
// The monotone BFS program (alpha 1 keeps it pushing until then) has its
// partial claims seeded; label propagation (dense pull start, push endgame)
// has them dropped.
func TestRescuePins(t *testing.T) {
	dram, bwd, _, part := buildDRAM(t, 10, 42)
	root := int64(0)
	for bwd.Degree(root) == 0 {
		root++
	}
	type rescuePin struct {
		nvmPin
		switches int
		seeded   int
		state    uint64
	}
	stateHash := func(state []int64) uint64 {
		h := fnv.New64a()
		for _, p := range state {
			fmt.Fprintf(h, "%d,", p)
		}
		return h.Sum64()
	}
	bfsProg, ccProg := vp.NewBFS(), vp.NewComponents()
	cases := []struct {
		name         string
		prog         vp.Program
		alpha, beta  float64
		failAfter    int64
		state        func() []int64
		spyFirstScan bool
		want         rescuePin
	}{
		{"vp/bfs", bfsProg, 1, 10, 100, bfsProg.Tree, true,
			rescuePin{nvmPin{14111240, 5, 0xe93131f3e4da4e0f, 0}, 1, 56, 0x6e181ead27a560a7}},
		{"vp/cc", ccProg, 4, 40, 5, ccProg.Labels, false,
			rescuePin{nvmPin{1583965, 5, 0xc09658ae5c030134, 0}, 2, 0, 0xc840f9e6321932e7}},
	}
	for _, c := range cases {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		mk := func(_ string, chunk int) (nvm.Storage, error) {
			return &failingStore{Storage: nvm.NewMemStore(dev, chunk), failAfter: c.failAfter}, nil
		}
		sf, err := semiext.OffloadForward(dram.(bfs.DRAMForward).G, mk, nil, semiext.ForwardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		spy := &seedSpy{HybridBackwardAccess: bwd.(bfs.HybridBackwardAccess), seen: !c.spyFirstScan}
		cfg := vpConfig(bfs.ModeHybrid)
		cfg.Alpha, cfg.Beta = c.alpha, c.beta
		eng, err := vp.NewEngine(bfs.NVMForward{SF: sf}, spy, part, c.prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		spy.eng = eng
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Resilience.Degraded; len(d) != 1 || d[0].From != bfs.TopDown {
			t.Fatalf("%s: degraded events %+v, want one push rescue", c.name, d)
		}
		got := rescuePin{pinOf(res), res.Switches, spy.seeded, stateHash(c.state())}
		if got != c.want {
			t.Errorf("%s: got {%v, %d, %d, %#x}, pinned {%v, %d, %d, %#x}", c.name,
				got.nvmPin, got.switches, got.seeded, got.state,
				c.want.nvmPin, c.want.switches, c.want.seeded, c.want.state)
		}
	}
}

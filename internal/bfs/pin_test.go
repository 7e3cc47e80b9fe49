package bfs

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// The virtual-time pins: every level loop in this package, on one seeded
// SCALE-8 DRAM graph, must reproduce these exact nanoseconds, level counts
// and per-level (direction, claimed, time) sequences. They were recorded before the level loops were merged; a
// refactor of the loops must leave every constant untouched, and a change
// that means to move virtual time must say so by editing them.

var pinTopo = numa.Topology{Nodes: 2, CoresPerNode: 2}

type pin struct {
	time   vtime.Duration
	levels int
	hash   uint64
}

func (p pin) String() string {
	return fmt.Sprintf("{%d, %d, %#x}", int64(p.time), p.levels, p.hash)
}

// levelsPin folds a run's per-level (direction, claimed, time) sequence.
func levelsPin(total vtime.Duration, levels []LevelStats) pin {
	h := fnv.New64a()
	for _, l := range levels {
		fmt.Fprintf(h, "%d,%d,%d;", l.Direction, l.Claimed, int64(l.Time))
	}
	return pin{total, len(levels), h.Sum64()}
}

func pinConfig(mode Mode) Config {
	return Config{Topology: pinTopo, Alpha: 4, Beta: 40, Mode: mode}
}

// pinRoots returns the pins' single-source root — the first vertex with an
// edge — and their 64 batch roots.
func pinRoots(bwd BackwardAccess, n int64) (root int64, roots64 []int64) {
	for bwd.Degree(root) == 0 {
		root++
	}
	roots64 = make([]int64, 64)
	for l := range roots64 {
		roots64[l] = (root + int64(l)*5) % n
	}
	return root, roots64
}

// stepPinSession admits three searches one joint level apart, releases
// finished lanes at every boundary and steps until the session drains.
func stepPinSession(t *testing.T, r *BatchRunner, roots64 []int64) (*BatchSession, []LevelStats) {
	s := r.OpenSession(true)
	var levels []LevelStats
	for step := 0; step < 3 || s.InUse() != 0; step++ {
		if step < 3 {
			if err := s.Admit(step, roots64[step*7]); err != nil {
				t.Fatal(err)
			}
		}
		lv, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, LevelStats{
			Direction: lv.Direction, Claimed: lv.Claimed, Time: lv.End - lv.Start,
		})
		if err := s.Release(lv.Finished); err != nil {
			t.Fatal(err)
		}
	}
	return s, levels
}

func TestVirtualTimePins(t *testing.T) {
	fg, bg, _, part := buildTestGraphs(t, 8, 42, pinTopo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	root, roots64 := pinRoots(bwd, int64(part.N))

	runner := func(mode Mode) func(t *testing.T) pin {
		return func(t *testing.T) pin {
			r, err := NewRunner(fwd, bwd, part, pinConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			return levelsPin(res.Time, res.Levels)
		}
	}
	batch := func(roots []int64) func(t *testing.T) pin {
		return func(t *testing.T) pin {
			r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunBatch(roots)
			if err != nil {
				t.Fatal(err)
			}
			return levelsPin(res.Time, res.Levels)
		}
	}
	session := func(t *testing.T) pin {
		r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid))
		if err != nil {
			t.Fatal(err)
		}
		s, levels := stepPinSession(t, r, roots64)
		return levelsPin(s.Now(), levels)
	}

	cases := []struct {
		name string
		run  func(t *testing.T) pin
		want pin
	}{
		{"runner/hybrid", runner(ModeHybrid), pin{52279, 5, 0x8dbd2674a3c44271}},
		{"runner/top-down-only", runner(ModeTopDownOnly), pin{94144, 5, 0x3ec98c83276a7f98}},
		{"runner/bottom-up-only", runner(ModeBottomUpOnly), pin{77205, 5, 0xff760edb3e5e966a}},
		{"batch/1-lane", batch(roots64[:1]), pin{62410, 5, 0xc1397afc428a8b63}},
		{"batch/64-lanes", batch(roots64), pin{1187499, 5, 0x1e73d653aadbfde9}},
		{"session/3-admissions", session, pin{184198, 7, 0x4428a30a870f1f8d}},
	}
	for _, c := range cases {
		if got := c.run(t); got != c.want {
			t.Errorf("%s: got %v, pinned %v", c.name, got, c.want)
		}
	}
}

// The NVM pins: the same engines over a forward graph read through a
// storage stack. Every cell offloads its own
// forward graph onto its own device, so cache and channel state never leak
// between cells. Each pins the run's virtual time, the level count, the
// per-level (direction, claimed, examined DRAM, examined NVM, time) hash and
// the page cache's prefetch count.

type nvmPin struct {
	pin
	prefetches int64
}

func (p nvmPin) String() string {
	return fmt.Sprintf("{%v, %d}", p.pin, p.prefetches)
}

// examinedPin is levelsPin with the per-tier examined counts folded in.
func examinedPin(total vtime.Duration, levels []LevelStats) pin {
	h := fnv.New64a()
	for _, l := range levels {
		fmt.Fprintf(h, "%d,%d,%d,%d,%d;", l.Direction, l.Claimed, l.ExaminedDRAM, l.ExaminedNVM, int64(l.Time))
	}
	return pin{total, len(levels), h.Sum64()}
}

func treeHash(trees ...[]int64) uint64 {
	h := fnv.New64a()
	for _, tree := range trees {
		for _, p := range tree {
			fmt.Fprintf(h, "%d,", p)
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

// pinStacks are the two forward-graph storage stacks of the NVM pins: the
// paper's raw layout, and every optional layer at once.
var pinStacks = []struct {
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

func TestNVMVirtualTimePins(t *testing.T) {
	fg, bg, _, part := buildTestGraphs(t, 10, 42, pinTopo)
	_, bwd := wrapDRAM(t, fg, bg)
	root, roots64 := pinRoots(bwd, int64(part.N))
	offload := func(t *testing.T, opts semiext.ForwardOptions) NVMForward {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
		sf, err := semiext.OffloadForward(fg, mk, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sf.Close() })
		return NVMForward{SF: sf}
	}

	runner := func(mode Mode) func(t *testing.T, fwd NVMForward) nvmPin {
		return func(t *testing.T, fwd NVMForward) nvmPin {
			r, err := NewRunner(fwd, bwd, part, pinConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			return nvmPin{examinedPin(res.Time, res.Levels), res.Layers.Get("cache", "prefetches")}
		}
	}
	batch := func(t *testing.T, fwd NVMForward) nvmPin {
		r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunBatch(roots64)
		if err != nil {
			t.Fatal(err)
		}
		return nvmPin{examinedPin(res.Time, res.Levels), res.Layers.Get("cache", "prefetches")}
	}
	session := func(t *testing.T, fwd NVMForward) nvmPin {
		r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid))
		if err != nil {
			t.Fatal(err)
		}
		s, levels := stepPinSession(t, r, roots64)
		return nvmPin{examinedPin(s.Now(), levels), s.LayerTotals().Get("cache", "prefetches")}
	}

	// The two batched cells over the full stack were re-pinned when the
	// batched scatter moved onto the shared sweep and began announcing its
	// next chunk (FrontierPrefetch was silently ignored by batches before:
	// {5417602, 7, 0x19923b3ca122c72b}, 0 and {2404846, 7, 0xb9bb4f41940058d6}, 0
	// prefetches). Every other constant predates the merge.
	cases := []struct {
		name string
		run  func(t *testing.T, fwd NVMForward) nvmPin
		want [2]nvmPin // by pinStacks index
	}{
		{"runner/hybrid", runner(ModeHybrid), [2]nvmPin{
			{pin{3063874, 5, 0x21de17f46e1acc89}, 0}, {pin{1533615, 5, 0x7cf25c3035f78919}, 0}}},
		{"runner/top-down-only", runner(ModeTopDownOnly), [2]nvmPin{
			{pin{196454084, 5, 0x8822fab8c0c3b80b}, 0}, {pin{2367376, 5, 0xc168ff3131d58e83}, 16}}},
		{"batch/64", batch, [2]nvmPin{
			{pin{311539355, 7, 0x28026b1ccc559fd}, 0}, {pin{5558653, 7, 0x1a9c53e5d65ce646}, 12}}},
		{"session/3-admissions", session, [2]nvmPin{
			{pin{216381273, 7, 0x7e6b119eb618c0fe}, 0}, {pin{2391305, 7, 0x94015ee8e7d4bce6}, 20}}},
	}
	for _, c := range cases {
		for i, stack := range pinStacks {
			if got := c.run(t, offload(t, stack.opts)); got != c.want[i] {
				t.Errorf("%s over %s: got %v, pinned %v", c.name, stack.name, got, c.want[i])
			}
		}
	}
}

type rescuePin struct {
	pin
	switches int
	// seeded counts the failed kernel's claims the rescue kept.
	seeded int64
	trees  uint64
}

func (p rescuePin) String() string {
	return fmt.Sprintf("{%v, %d, %d, %#x}", p.pin, p.switches, p.seeded, p.trees)
}

// seedSpy reads a top-down rescue's seeded claim count from outside the
// engine: it wraps the backward access and, on the run's first backward scan
// — a kernel's first scanner call, Idle for the Runner (whose HeadHits
// claims before any Prefix) and Prefix for a batch — counts the bits the
// rescue left in the engine's next structure. Alpha 1 never turns bottom-up
// by itself, so that scan opens the re-run, before any bottom-up claim has
// landed.
type seedSpy struct {
	HybridBackwardAccess
	count  func() int64
	seen   bool
	seeded int64
}

func (s *seedSpy) NewScanner(clock *vtime.Clock) BackwardScan {
	return spyScan{s.HybridBackwardAccess.NewScanner(clock), s}
}

// tailDeathSpy wraps a backward access whose tail stores die, records the
// failed kernel's claims (seeded, set by the test) and whether the Rest that
// failed was at a vertex whose word holds head hits above it: claims the
// kernel must take back before the rescue seeds from what it left.
type tailDeathSpy struct {
	HybridBackwardAccess
	seeded    int64
	hitsAbove bool
}

func (s *tailDeathSpy) NewScanner(clock *vtime.Clock) BackwardScan {
	return &tailDeathScan{BackwardScan: s.HybridBackwardAccess.NewScanner(clock), spy: s}
}

type tailDeathScan struct {
	BackwardScan
	spy  *tailDeathSpy
	wi   int
	hits uint64
}

func (s *tailDeathScan) HeadHits(wi int, want uint64, frontier []uint64, tree []int64) uint64 {
	s.wi, s.hits = wi, s.BackwardScan.HeadHits(wi, want, frontier, tree)
	return s.hits
}

func (s *tailDeathScan) Rest(k int, v int64, fn func(nbs []int64) (int, bool)) (int64, int64, error) {
	dram, nvmEdges, err := s.BackwardScan.Rest(k, v, fn)
	if err != nil && int(v/64) == s.wi && s.hits>>(v%64)>>1 != 0 {
		s.spy.hitsAbove = true
	}
	return dram, nvmEdges, err
}

type spyScan struct {
	BackwardScan
	spy *seedSpy
}

func (s spyScan) fire() {
	if !s.spy.seen {
		s.spy.seen, s.spy.seeded = true, s.spy.count()
	}
}

func (s spyScan) Idle(wi int) uint64 {
	s.fire()
	return s.BackwardScan.Idle(wi)
}

func (s spyScan) Prefix(k int, v int64) (uint32, []uint32, bool) {
	s.fire()
	return s.BackwardScan.Prefix(k, v)
}

// TestRescuePins pins one rescued run per engine: the raw forward stores
// die 100 reads in, in the middle of a multi-chunk top-down level (alpha 1
// keeps the rule on top-down), and the level is re-run bottom-up.
func TestRescuePins(t *testing.T) {
	fg, bg, _, part := buildTestGraphs(t, 10, 42, pinTopo)
	_, dram := wrapDRAM(t, fg, bg)
	root, roots64 := pinRoots(dram, int64(part.N))
	cfg := pinConfig(ModeHybrid)
	cfg.Alpha, cfg.Beta = 1, 10
	dying := func(t *testing.T) NVMForward {
		dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
		mk := func(_ string, chunk int) (nvm.Storage, error) {
			return &failingStore{Storage: nvm.NewMemStore(dev, chunk), failAfter: 100}, nil
		}
		sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sf.Close() })
		return NVMForward{SF: sf}
	}
	summarize := func(t *testing.T, total vtime.Duration, levels []LevelStats, switches int, res Resilience, spy *seedSpy, trees [][]int64) rescuePin {
		if len(res.Degraded) != 1 || res.Degraded[0].From != TopDown || !spy.seen {
			t.Fatalf("degraded events %+v, want one top-down rescue", res.Degraded)
		}
		return rescuePin{examinedPin(total, levels), switches, spy.seeded, treeHash(trees...)}
	}

	cases := []struct {
		name string
		run  func(t *testing.T) rescuePin
		want rescuePin
	}{
		{"runner", func(t *testing.T) rescuePin {
			spy := &seedSpy{HybridBackwardAccess: dram.(HybridBackwardAccess)}
			r, err := NewRunner(dying(t), spy, part, cfg)
			if err != nil {
				t.Fatal(err)
			}
			spy.count = func() int64 { return int64(r.NextBM.Count()) }
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			return summarize(t, res.Time, res.Levels, res.Switches, res.Resilience, spy, [][]int64{res.Tree})
		}, rescuePin{pin{14106500, 5, 0xe93131f3e4da4e0f}, 1, 56, 0xb85cbc3a5e032914}},
		{"batch/64", func(t *testing.T) rescuePin {
			spy := &seedSpy{HybridBackwardAccess: dram.(HybridBackwardAccess)}
			r, err := NewBatchRunner(dying(t), spy, part, 64, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A failed scatter has committed nothing, so its rescue keeps
			// nothing: the next lanes must be scrubbed.
			spy.count = func() (kept int64) {
				for _, w := range r.next.Words() {
					kept += int64(bits.OnesCount64(w))
				}
				return kept
			}
			res, err := r.RunBatch(roots64)
			if err != nil {
				t.Fatal(err)
			}
			return summarize(t, res.Time, res.Levels, res.Switches, res.Resilience, spy, res.Trees)
		}, rescuePin{pin{19382606, 7, 0x351f549cc3c63e81}, 1, 0, 0x82c791bd0e184ce7}},
		{"runner/tail-death", func(t *testing.T) rescuePin {
			mk := func(_ string, chunk int) (nvm.Storage, error) {
				return &failingStore{Storage: nvm.NewMemStore(nil, chunk), failAfter: 100}, nil
			}
			hb, err := semiext.BuildHybridBackward(bg, 1, mk, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { hb.Close() })
			spy := &tailDeathSpy{HybridBackwardAccess: HybridBackwardAccess{HB: hb}}
			// A huge alpha turns bottom-up at level 1, a huge beta keeps
			// it there, so the tails are read from the first sweep on.
			cfg := pinConfig(ModeHybrid)
			cfg.Alpha, cfg.Beta = 1e6, 1e18
			r, err := NewRunner(DRAMForward{G: fg}, spy, part, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The claims the failed kernel left, counted before the
			// engine's rescue counts them itself; a vertex it did not
			// claim keeps no parent.
			degrade := r.degrade
			r.degrade = func(from, to Direction) (int64, error) {
				spy.seeded = int64(r.NextBM.Count())
				for v, p := range r.tree {
					if p >= 0 && !r.visited.Test(v) {
						t.Errorf("failed level left parent %d on unclaimed vertex %d", p, v)
					}
				}
				return degrade(from, to)
			}
			res, err := r.Run(root)
			if err != nil {
				t.Fatal(err)
			}
			if d := res.Resilience.Degraded; len(d) != 1 || d[0].From != BottomUp {
				t.Fatalf("degraded events %+v, want one bottom-up rescue", d)
			}
			if !spy.hitsAbove {
				t.Fatal("the tail store did not die at a vertex with head hits above it in its word")
			}
			return rescuePin{examinedPin(res.Time, res.Levels), res.Switches, spy.seeded, treeHash(res.Tree)}
		}, rescuePin{pin{578544, 5, 0xf0712c5c995451c6}, 2, 195, 0xe408b7fc5cc93200}},
	}
	for _, c := range cases {
		if got := c.run(t); got != c.want {
			t.Errorf("%s: got %v, pinned %v", c.name, got, c.want)
		}
	}
}

package bfs

import (
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// The virtual-time pins: every level loop in this package, on one seeded
// SCALE-8 DRAM graph, must reproduce these exact nanoseconds, level counts
// and per-level (direction, claimed, time) sequences at any real
// parallelism. They were recorded before the level loops were merged; a
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

func pinConfig(mode Mode, workers int) Config {
	return Config{Topology: pinTopo, Alpha: 4, Beta: 40, Mode: mode, RealWorkers: workers}
}

func TestVirtualTimePins(t *testing.T) {
	fg, bg, _, part := buildTestGraphs(t, 8, 42, pinTopo)
	fwd, bwd := wrapDRAM(t, fg, bg)
	n := int64(part.N)
	root := int64(0)
	for bg.Degree(root) == 0 {
		root++
	}
	roots64 := make([]int64, 64)
	for l := range roots64 {
		roots64[l] = (root + int64(l)*5) % n
	}

	runner := func(mode Mode) func(t *testing.T, workers int) pin {
		return func(t *testing.T, workers int) pin {
			r, err := NewRunner(fwd, bwd, part, pinConfig(mode, workers))
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
	batch := func(roots []int64) func(t *testing.T, workers int) pin {
		return func(t *testing.T, workers int) pin {
			r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid, workers))
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
	// Three searches admitted one joint level apart, finished lanes
	// released at every boundary, stepped until the session drains.
	session := func(t *testing.T, workers int) pin {
		r, err := NewBatchRunner(fwd, bwd, part, 64, pinConfig(ModeHybrid, workers))
		if err != nil {
			t.Fatal(err)
		}
		s := r.OpenSession()
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
		return levelsPin(s.Now(), levels)
	}

	// The single-source top-down kernel charges a claim's winner more than
	// its losers, so once a frontier spans several chunks (top-down-only
	// here; the hybrid's top-down frontiers stay inside one chunk) its time
	// depends on who wins with two real workers — ROADMAP item 1. That case
	// is pinned at one real worker only.
	cases := []struct {
		name    string
		run     func(t *testing.T, workers int) pin
		workers []int
		want    pin
	}{
		{"runner/hybrid", runner(ModeHybrid), []int{1, 2}, pin{52279, 5, 0x8dbd2674a3c44271}},
		{"runner/top-down-only", runner(ModeTopDownOnly), []int{1}, pin{94144, 5, 0x3ec98c83276a7f98}},
		{"runner/bottom-up-only", runner(ModeBottomUpOnly), []int{1, 2}, pin{77205, 5, 0xff760edb3e5e966a}},
		{"batch/1-lane", batch(roots64[:1]), []int{1, 2}, pin{62410, 5, 0xc1397afc428a8b63}},
		{"batch/64-lanes", batch(roots64), []int{1, 2}, pin{1187499, 5, 0x1e73d653aadbfde9}},
		{"session/3-admissions", session, []int{1, 2}, pin{184198, 7, 0x4428a30a870f1f8d}},
	}
	for _, c := range cases {
		for _, workers := range c.workers {
			if got := c.run(t, workers); got != c.want {
				t.Errorf("%s, %d real workers: got %v, pinned %v", c.name, workers, got, c.want)
			}
		}
	}
}

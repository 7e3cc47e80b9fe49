package vp_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/vp"
)

// TestVirtualTimePins is the vertex-program half of the pins in
// internal/bfs/pin_test.go: the three programs on one seeded SCALE-8 DRAM
// graph must reproduce these exact nanoseconds, level counts and per-level
// (direction, claimed, time) sequences at one and two real workers. The
// constants were recorded before the engine's level loop was merged with
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
		for _, workers := range []int{1, 2} {
			eng, err := vp.NewEngine(fwd, bwd, part, c.prog(), vpConfig(workers, bfs.ModeHybrid))
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
				t.Errorf("%s, %d real workers: got {%d, %d, %#x}, pinned {%d, %d, %#x}", c.name, workers,
					got.time, got.levels, got.hash, c.want.time, c.want.levels, c.want.hash)
			}
		}
	}
}

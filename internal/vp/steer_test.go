package vp

import (
	"testing"

	"semibfs/internal/bfs"
)

// pushyPull is a pull-only program that hints push: only the clamp to the
// implemented kernels stands between it and a nil kernel.
type pushyPull struct{ *PageRank }

func (pushyPull) Hint(int, int64) Hint { return HintPush }

// TestSteer is the engine's half of bfs.TestDecideRule: what the engine
// makes of the alpha/beta rule's answer, per program.
func TestSteer(t *testing.T) {
	cc := NewComponents()
	cc.Setup(256, 1)
	cases := []struct {
		prog     Program
		frontier int64
		rule     bfs.Direction
		want     bfs.Direction
		desc     string
	}{
		{NewBFS(), 100, bfs.TopDown, bfs.TopDown, "bfs: no hint, the rule stands"},
		{NewBFS(), 100, bfs.BottomUp, bfs.BottomUp, "bfs: no hint, the rule stands"},
		{cc, 64, bfs.TopDown, bfs.BottomUp, "cc: dense frontier hints pull over the rule"},
		{cc, 63, bfs.TopDown, bfs.TopDown, "cc: sparse frontier defers to the rule"},
		{NewPageRank(nil, PageRankOptions{}), 1, bfs.TopDown, bfs.BottomUp, "pagerank: pull-only, never top-down"},
		{NewPageRank(nil, PageRankOptions{}), 1, bfs.BottomUp, bfs.BottomUp, "pagerank: pull-only, never top-down"},
		{pushyPull{NewPageRank(nil, PageRankOptions{})}, 1, bfs.TopDown, bfs.BottomUp, "push hint clamped to the pull kernel"},
	}
	for _, c := range cases {
		e := &Engine{prog: c.prog}
		if got := e.steer(1, c.frontier, c.rule); got != c.want {
			t.Errorf("%s: steer(frontier %d, rule %v) = %v, want %v", c.desc, c.frontier, c.rule, got, c.want)
		}
	}
}

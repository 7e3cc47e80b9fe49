package cluster

import (
	"fmt"
	"testing"

	"semibfs/internal/edgelist"
)

// TestCommPhaseAccounting pins the accounting invariants on both
// layouts: the per-level phase splits sum to each level's CommBytes,
// the levels sum to the run's split, and the run's split sums to its
// CommBytes total — no traffic is double-counted or dropped between
// buckets.
func TestCommPhaseAccounting(t *testing.T) {
	list := testList(t, 10, 99)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	// "RxC" layouts are explicit grid shapes, among them the tall and
	// degenerate ones GridShape never picks.
	for _, layout := range []string{"1d", "2d", "1x4", "4x1", "3x2", "2x3", "1x1"} {
		for _, compress := range []bool{false, true} {
			cfg := Config{Machines: 8, Alpha: 32, Beta: 320}
			var rows, cols int
			if n, _ := fmt.Sscanf(layout, "%dx%d", &rows, &cols); n == 2 {
				cfg.Machines, cfg.GridRows, cfg.GridCols = rows*cols, rows, cols
			}
			if compress {
				cfg.ForwardOnNVM = true
				cfg.Compress = true
			}
			var (
				res *Result
				err error
			)
			if layout != "1d" {
				var g *Grid
				g, err = BuildGrid(src, cfg)
				if err == nil {
					res, err = g.Run(root)
				}
			} else {
				var c *Cluster
				c, err = Build(src, cfg)
				if err == nil {
					res, err = c.Run(root)
				}
			}
			if err != nil {
				t.Fatalf("%s compress=%v: %v", layout, compress, err)
			}
			var sum CommStats
			for _, l := range res.Levels {
				if l.Comm.Total() != l.CommBytes {
					t.Fatalf("%s compress=%v level %d: phase sum %d != level total %d",
						layout, compress, l.Level, l.Comm.Total(), l.CommBytes)
				}
				sum.TDFrontier += l.Comm.TDFrontier
				sum.TDCandidate += l.Comm.TDCandidate
				sum.BUAllgather += l.Comm.BUAllgather
				sum.BURing += l.Comm.BURing
				sum.Control += l.Comm.Control
			}
			// Promotion traffic between levels is charged to the run, so
			// the per-level sum bounds the run split from below, bucket
			// by bucket.
			if sum.TDFrontier > res.Comm.TDFrontier ||
				sum.TDCandidate > res.Comm.TDCandidate ||
				sum.BUAllgather > res.Comm.BUAllgather ||
				sum.BURing > res.Comm.BURing ||
				sum.Control > res.Comm.Control {
				t.Fatalf("%s compress=%v: level sum %+v exceeds run split %+v",
					layout, compress, sum, res.Comm)
			}
			if res.Comm.Total() != res.CommBytes {
				t.Fatalf("%s compress=%v: run split %+v does not sum to total %d",
					layout, compress, res.Comm, res.CommBytes)
			}
			if res.CommBytes == 0 && cfg.Machines > 1 {
				t.Fatalf("%s compress=%v: no communication on %d machines", layout, compress, cfg.Machines)
			}
		}
	}
}

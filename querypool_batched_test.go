package semibfs

import (
	"fmt"
	"slices"
	"testing"

	"semibfs/internal/graph500"
	"semibfs/internal/validate"
)

// TestQueryPoolMatchesRunBatched holds the library's fixed-batch path
// (QueryPool) to the CLI's and the query sweep's (graph500.RunBatched): the
// same roots must give the same batch partition, the same per-lane trees,
// Visited and TraversedEdges, and — both being one protocol — exactly the
// same levels, switches and virtual seconds per batch.
//
// Both sides share one System: a run that starts behind another timeline's
// device traffic opens a new device epoch, so RunBatched after the pool sees
// the device the pool saw.
func TestQueryPoolMatchesRunBatched(t *testing.T) {
	edges := poolTestEdges(t, 10, 5)
	for _, place := range []Placement{PlaceDRAM, PlacePCIeFlash} {
		for _, lanes := range []int{1, 16, 64} {
			t.Run(fmt.Sprintf("%v/B=%d", place, lanes), func(t *testing.T) {
				poolSys, err := NewSystem(edges, Options{
					Placement: place,
					NUMANodes: 2, CoresPerNode: 2,
					Alpha: 64, Beta: 640,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer poolSys.Close()
				// 70 roots: one full 64-lane batch plus a partial one.
				var roots []int64
				for v := int64(0); v < edges.NumVertices() && len(roots) < 70; v++ {
					if poolSys.Degree(v) > 0 {
						roots = append(roots, v)
					}
				}
				pool, err := poolSys.NewQueryPool(lanes)
				if err != nil {
					t.Fatal(err)
				}
				results, stats, err := pool.Run(roots)
				if err != nil {
					t.Fatal(err)
				}

				refSys := poolSys
				cfg := refSys.runner.Config()
				want, err := graph500.RunBatched(refSys.sys, refSys.src, cfg, lanes, roots, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != len(roots) || len(stats) != len(want.Batches) {
					t.Fatalf("%d results in %d batches, want %d in %d",
						len(results), len(stats), len(roots), len(want.Batches))
				}
				var traversed int64
				for b, bs := range stats {
					row := want.Batches[b]
					if bs.Batch != b || bs.Size != row.Size || bs.Levels != row.Levels || bs.Switches != row.Switches {
						t.Fatalf("batch %d: pool (index %d, size %d, %d levels, %d switches), RunBatched %+v",
							b, bs.Batch, bs.Size, bs.Levels, bs.Switches, row)
					}
					if bs.Seconds != row.Time.Seconds() || bs.AmortizedSeconds != row.Amortized() {
						t.Fatalf("batch %d: pool took %v s (%v per query), RunBatched %v s (%v per query)",
							b, bs.Seconds, bs.AmortizedSeconds, row.Time.Seconds(), row.Amortized())
					}
					traversed += bs.TraversedEdges
				}
				if traversed != want.Traversed {
					t.Fatalf("pool traversed %d edges, RunBatched %d", traversed, want.Traversed)
				}

				// RunBatched keeps no trees; a second runner replays its
				// batches for them (trees do not depend on device time).
				br, err := refSys.sys.NewBatchRunner(lanes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(roots); lo += lanes {
					batch := roots[lo:min(lo+lanes, len(roots))]
					res, err := br.RunBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					if got := stats[lo/lanes].Roots; !slices.Equal(got, batch) {
						t.Fatalf("batch %d roots %v, want %v", lo/lanes, got, batch)
					}
					for l, root := range batch {
						qr := results[lo+l]
						if qr.Root != root || qr.Batch != lo/lanes || qr.Lane != l {
							t.Fatalf("query %d: root %d in batch %d lane %d, want root %d in batch %d lane %d",
								lo+l, qr.Root, qr.Batch, qr.Lane, root, lo/lanes, l)
						}
						if !slices.Equal(qr.Parents, res.Trees[l]) {
							t.Fatalf("query %d (root %d): tree differs from RunBatch's", lo+l, root)
						}
						if te := validate.TraversedEdges(res.Trees[l], refSys.deg); qr.Visited != res.Visited[l] || qr.TraversedEdges != te {
							t.Fatalf("query %d (root %d): visited/traversed (%d,%d), RunBatch (%d,%d)",
								lo+l, root, qr.Visited, qr.TraversedEdges, res.Visited[l], te)
						}
					}
				}
			})
		}
	}
}

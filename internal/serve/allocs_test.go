package serve

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
)

// allocSystem builds a batch runner of the given width over a PCIe system
// at the given SCALE, and returns it with its degree oracle, its vertex
// count and the roots of nonzero degree in vertex order.
func allocSystem(tb testing.TB, scale, lanes int) (*bfs.BatchRunner, func(int64) int64, int64, []int64) {
	tb.Helper()
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 16, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Build(edgelist.ListSource{List: list}, topo, core.ScenarioPCIeFlash, core.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	br, err := sys.NewBatchRunner(lanes, bfs.Config{Topology: topo})
	if err != nil {
		tb.Fatal(err)
	}
	var roots []int64
	for v := int64(0); v < list.NumVertices; v++ {
		if sys.Backward.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	return br, sys.Backward.Degree, list.NumVertices, roots
}

// sweepAllocs bounds one steady-state server sweep that finishes lanes. It
// measures one object, the SessionLevel a Step returns: counting the
// finished lanes' traversed edges, resolving them and releasing their lanes
// allocate nothing.
const sweepAllocs = 2

func TestServerSweepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	br, deg, n, roots := allocSystem(t, 10, 64)
	sv := NewServer(br, deg, n, ServerConfig{Lanes: 64})
	next, warm := 0, false
	// One sweep: top the free lanes up at the clock, then step once. Once
	// the lanes are staggered, every sweep must finish at least one lane.
	sweep := func() {
		for free := sv.sess.FreeLanes(); free != 0; free &= free - 1 {
			if _, err := sv.Submit(Arrival{Root: roots[next%len(roots)], At: sv.Now()}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		served := sv.stats.Served
		if _, err := sv.step(); err != nil {
			t.Fatal(err)
		}
		if warm && sv.stats.Served == served {
			t.Fatalf("sweep %d finished no lane", sv.stats.Steps)
		}
		sv.outcomes = sv.outcomes[:0]
	}
	for range 32 {
		sweep()
	}
	warm = true
	if allocs := testing.AllocsPerRun(100, sweep); allocs > sweepAllocs {
		t.Fatalf("a server sweep that finishes lanes allocates %.2f objects, want <= %d", allocs, sweepAllocs)
	}
}

// BenchmarkServeTrace plays a seeded 512-query trace through a 64-lane
// server over a SCALE-12 PCIe system: admission, sweeps, traversed-edge
// counting and lane release, with the graph built once. keep-trees also
// writes, scrubs and copies out every query's parent array; no-trees is
// the load-experiment server, which writes none.
func BenchmarkServeTrace(b *testing.B) {
	br, deg, n, roots := allocSystem(b, 12, 64)
	trace := pinTrace(12, roots, 512, 2e-5, 1, []float64{0})
	for _, keep := range []bool{true, false} {
		name := "no-trees"
		if keep {
			name = "keep-trees"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				sv := NewServer(br, deg, n, ServerConfig{Lanes: 64, KeepTrees: keep})
				if _, err := sv.ServeTrace(trace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package serve

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// TestServerInterleavesUpdatesBetweenSweeps runs an always-on server over
// a dynamic graph whose BetweenSweeps hook applies a WAL-durable update
// batch at every sweep boundary. Admitted queries must all run to
// completion — mutating the graph between sweeps drops nothing — and the
// updates must demonstrably land while queries are in flight.
func TestServerInterleavesUpdatesBetweenSweeps(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	list, err := generator.Generate(generator.Config{Scale: 9, EdgeFactor: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	part := numa.NewPartition(topo, int(list.NumVertices))
	media := dyn.NewMedia(nil)
	buildClock := vtime.NewClock(0)
	g, err := dyn.Build(edgelist.ListSource{List: list}, part, media.Factory(), buildClock, dyn.Options{
		Backward: semiext.BackwardOptions{KeepEdges: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	br, err := bfs.NewBatchRunner(bfs.NVMForward{SF: g.Forward()}, bfs.HybridBackwardAccess{HB: g.Backward()}, part, 2, bfs.Config{
		Topology: topo, Alpha: 16, Beta: 160,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The hook toggles one edge per sweep boundary, walking a
	// deterministic pattern so inserts and deletes alternate.
	updClock := vtime.NewClock(0)
	n := list.NumVertices
	rng := uint64(5)
	hooks := 0
	// The hook runs only inside the serving loop's sweep boundaries (it
	// holds the server's lock), so every update it applies interleaves
	// with live serving by construction.
	hook := func(now float64) error {
		hooks++
		rng = rng*6364136223846793005 + 1442695040888963407
		u := int64(rng>>33) % n
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int64(rng>>33) % n
		if u == v {
			return nil
		}
		_, err := g.Apply(updClock, []dyn.Update{{U: u, V: v, Del: hooks%2 == 0}})
		return err
	}

	sv := NewServer(br, g.Backward().Degree, n, ServerConfig{
		Lanes: 2, KeepTrees: true, BetweenSweeps: hook,
	})
	roots := []int64{1, 5, 9, 23, 42, 77, 100, 150, 200, 250, 300, 356}
	trace := make([]Arrival, len(roots))
	for i, r := range roots {
		trace[i] = Arrival{At: float64(i) * 1e-6, Root: r}
	}
	outs, err := sv.ServeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Stats().Steps < 2 {
		t.Fatalf("only %d sweeps ran; trace should span many", sv.Stats().Steps)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(trace) {
		t.Fatalf("%d outcomes for %d submissions", len(outs), len(trace))
	}
	for _, q := range outs {
		if q.Outcome != OutcomeServed {
			t.Fatalf("query %d (root %d) ended %v, want served", q.ID, q.Root, q.Outcome)
		}
		if q.Visited <= 0 {
			t.Fatalf("query %d served but visited %d vertices", q.ID, q.Visited)
		}
		if q.Parents[q.Root] != q.Root {
			t.Fatalf("query %d: parent[root] = %d", q.ID, q.Parents[q.Root])
		}
	}
	if hooks == 0 {
		t.Fatal("BetweenSweeps hook never ran")
	}
	if g.Stats().Applied == 0 {
		t.Fatal("no updates were applied during serving")
	}
	if adds, dels := g.PendingEdits(); adds+dels == 0 {
		t.Fatal("overlay shows no pending edits after the run")
	}
}

// TestServerCountsDegreesOfTheFinishingGraph: NewServer tabulates the
// degree oracle once, but a BetweenSweeps hook may change the graph under
// it. A served query's traversed edges must be counted with the degrees the
// oracle gives when the query finishes: here every degree doubles from the
// hook's eighth call on.
func TestServerCountsDegreesOfTheFinishingGraph(t *testing.T) {
	br, deg, n, roots := allocSystem(t, 10, 8)
	factor, hooks := int64(1), 0
	var doubled float64
	sv := NewServer(br, func(v int64) int64 { return factor * deg(v) }, n, ServerConfig{
		Lanes: 8, KeepTrees: true,
		BetweenSweeps: func(now float64) error {
			if hooks++; hooks == 8 {
				factor, doubled = 2, now
			}
			return nil
		},
	})
	outs, err := sv.ServeTrace(pinTrace(3, roots, 64, 2e-5, 1, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	before, after := 0, 0
	for _, q := range outs {
		if q.Outcome != OutcomeServed {
			t.Fatalf("query %d ended %v, want served", q.ID, q.Outcome)
		}
		want := validate.TraversedEdges(q.Parents, deg)
		if q.Finished > doubled {
			want *= 2
			after++
		} else {
			before++
		}
		if q.TraversedEdges != want {
			t.Fatalf("query %d (root %d, finished at %v s, degrees doubled at %v s): %d traversed edges, want %d",
				q.ID, q.Root, q.Finished, doubled, q.TraversedEdges, want)
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("%d queries finished before the degrees doubled, %d after; the trace must reach both", before, after)
	}
}

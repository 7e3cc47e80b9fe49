package serve

import (
	"sync"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
)

// TestServerLiveFullStackSubmitCancel runs a Start-ed server over the full
// storage stack — SSD, compressed adjacency, checksums, a 4-deep async
// pipeline with frontier prefetch, a page cache, two scrubbed replicas and
// seeded transient faults — while four goroutines submit and cancel and
// read Layers, Stats, QueueDepth and Now. The stacks take no locks of their
// own: run under -race, this shows the server's lock is what stands between
// its callers, its pump and the stacks. Every submission must still end in
// exactly one outcome.
func TestServerLiveFullStackSubmitCancel(t *testing.T) {
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	sc := core.ScenarioSSD.WithIO(true, 4, 8).WithCache(32<<10, 2).WithReplicas(2, 2e4)
	sc.Checksums = true
	sc.Faults = faults.Config{Seed: 34, TransientRate: 0.01}
	sys, err := core.Build(edgelist.ListSource{List: list}, topo, sc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	br, err := sys.NewBatchRunner(4, bfs.Config{Topology: topo, Alpha: 16, Beta: 160})
	if err != nil {
		t.Fatal(err)
	}
	var roots []int64
	for v := int64(0); len(roots) < 32; v++ {
		if sys.Backward.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}

	sv := NewServer(br, sys.Backward.Degree, list.NumVertices, ServerConfig{
		Lanes: 4, QueueCap: 8, Policy: RejectOldest, DefaultDeadline: 0.2,
	})
	sv.Start()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id, err := sv.Submit(roots[(g*20+i)%len(roots)], SubmitOptions{Priority: i % 2})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					sv.Cancel(id)
				}
				sv.Layers()
				sv.Stats()
				sv.QueueDepth()
				sv.Now()
			}
		}(g)
	}
	wg.Wait()
	outs, err := sv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	outs = append(outs, sv.TakeOutcomes()...)

	st := sv.Stats()
	if st.Submitted != 80 || int64(len(outs)) != st.Submitted {
		t.Fatalf("%d outcomes for %d submissions, want 80 of each", len(outs), st.Submitted)
	}
	seen := make(map[int]bool)
	var tally [5]int64
	for _, o := range outs {
		if seen[o.ID] {
			t.Fatalf("query %d resolved twice", o.ID)
		}
		seen[o.ID] = true
		tally[o.Outcome]++
	}
	if want := [5]int64{st.Served, st.Shed, st.Expired, st.Cancelled, st.Failed}; tally != want {
		t.Fatalf("outcome tallies %v, stats report %v (served/shed/expired/cancelled/failed)", tally, want)
	}
	if st.Served == 0 {
		t.Fatalf("nothing served: %+v", st)
	}
	if l := sv.Layers(); l.Get("mirror", "scrubbed_blocks") == 0 || l.Get("cache", "hits") == 0 ||
		l.Get("faults", "transient_injected") == 0 {
		t.Fatalf("the stack never scrubbed, hit its cache or faulted: %v", l)
	}
}

package serve

import (
	"errors"
	"reflect"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/rng"
)

// runSchedule drives sv from one goroutine through a seeded interleaving
// of 80 submissions at the server's clock, cancels of earlier queries,
// RunUntil steps of up to 200 µs and the read-only accessors, then Drain
// and Close. It returns every outcome.
func runSchedule(t *testing.T, sv *Server, roots []int64, seed uint64) []ServedQuery {
	t.Helper()
	g := rng.NewXoroshiro128(seed)
	var ids []int
	for len(ids) < 80 {
		switch g.Uint64n(4) {
		case 0, 1:
			i := len(ids)
			id, err := sv.Submit(Arrival{Root: roots[i%len(roots)], At: sv.Now(), Priority: i % 2})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ids = append(ids, id)
		case 2:
			if len(ids) > 0 && g.Uint64n(3) == 0 {
				sv.Cancel(ids[g.Uint64n(uint64(len(ids)))])
			}
			sv.Layers()
			sv.Stats()
			sv.QueueDepth()
		case 3:
			if err := sv.RunUntil(sv.Now() + 2e-4*g.Float64()); err != nil {
				t.Fatalf("run: %v", err)
			}
		}
	}
	outs, err := sv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	return append(outs, sv.TakeOutcomes()...)
}

// fullStackScheduleServer builds a server over the full storage stack —
// SSD, compressed adjacency, checksums, a 4-deep async pipeline with
// frontier prefetch, a page cache, two scrubbed replicas and seeded
// transient faults.
func fullStackScheduleServer(t *testing.T) (*Server, []int64) {
	t.Helper()
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
	t.Cleanup(func() { sys.Close() })
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
	return NewServer(br, sys.Backward.Degree, list.NumVertices, ServerConfig{
		Lanes: 4, QueueCap: 8, Policy: RejectOldest, DefaultDeadline: 0.2,
	}), roots
}

// TestServerScheduleFullStackSubmitCancel runs a seeded schedule of
// submissions, cancels, clock steps and counter reads against a server
// over the full storage stack. Every submission must end in exactly one
// outcome, and the same schedule on a fresh system must give bit-identical
// outcomes: nothing but the seed decides what a caller sees.
func TestServerScheduleFullStackSubmitCancel(t *testing.T) {
	var first []ServedQuery
	for run := range 2 {
		sv, roots := fullStackScheduleServer(t)
		outs := runSchedule(t, sv, roots, 34)

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
		if st.Served == 0 || st.Cancelled == 0 {
			t.Fatalf("the schedule served or cancelled nothing: %+v", st)
		}
		if l := sv.Layers(); l.Get("mirror", "scrubbed_blocks") == 0 || l.Get("cache", "hits") == 0 ||
			l.Get("faults", "transient_injected") == 0 {
			t.Fatalf("the stack never scrubbed, hit its cache or faulted: %v", l)
		}
		if _, err := sv.Submit(Arrival{Root: roots[0], At: sv.Now()}); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("submit after close: %v, want ErrServerClosed", err)
		}
		if run == 0 {
			first = outs
		} else if !reflect.DeepEqual(outs, first) {
			t.Fatal("the same schedule on a fresh system gave different outcomes")
		}
	}
}

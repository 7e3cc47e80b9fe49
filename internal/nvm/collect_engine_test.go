package nvm_test

import (
	"fmt"
	"reflect"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vp"
)

// TestCollectorMatchesReferenceEngineRuns: every Runner, BatchRunner and
// vp.Engine run reports the storage record its engine planned once, which
// must equal the reference walked around the run: Layers is the reference's
// after-minus-before, Resilience.Devices its health at the end. One
// scenario runs the full stack under recoverable faults; in the other
// every replica dies, so runs degrade and report dead devices.
func TestCollectorMatchesReferenceEngineRuns(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}

	full := core.ScenarioPCIeFlash.WithCache(64<<10, 2).WithReplicas(2, 20000).WithIO(true, 4, 8)
	full.Checksums = true
	full.BackwardDRAMEdgeLimit = 4
	full.Faults = faults.Config{Seed: 1234, TransientRate: 0.05, CorruptRate: 0.01}
	dying := core.ScenarioPCIeFlash.WithReplicas(2, 0)
	dying.Faults = faults.Config{Seed: 7, TransientRate: 0.02, DieAfterReads: 20}

	for _, tc := range []struct {
		name     string
		sc       core.Scenario
		degraded bool
	}{{"full-stack", full, false}, {"dying", dying, true}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.Build(edgelist.ListSource{List: list}, topo, tc.sc, core.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var stacks []nvm.Storage
			for _, a := range []any{sys.Forward, sys.Backward} {
				if s, ok := a.(bfs.StorageStacks); ok {
					stacks = append(stacks, s.Stacks()...)
				}
			}
			cfg := bfs.Config{Topology: topo, Alpha: 64, Beta: 40}
			r, err := sys.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			br, err := sys.NewBatchRunner(8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := vp.NewEngine(sys.Forward, sys.Backward, sys.Part, vp.NewBFS(), vp.Config{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}

			refBefore := refCollectStacks(stacks...)
			var runs, degraded int
			step := func(label string, err error, layers nvm.StackStats, res bfs.Resilience) {
				t.Helper()
				refAfter := refCollectStacks(stacks...)
				defer func() { refBefore = refAfter }()
				if err != nil {
					if !tc.degraded {
						t.Fatalf("%s: %v", label, err)
					}
					return
				}
				runs++
				if res.DegradedLevels() > 0 {
					degraded++
				}
				if want := refAfter.Sub(refBefore); !reflect.DeepEqual(layers, want) {
					t.Fatalf("%s: Layers\n got %v\nwant %v", label, layers, want)
				}
				if want := refCollectReplicaHealth(stacks...); !reflect.DeepEqual(res.Devices, want) {
					t.Fatalf("%s: Devices\n got %s\nwant %s", label, healthLine(res.Devices), healthLine(want))
				}
			}
			roots := []int64{2, 77, 500, 901, 3, 64, 640, 12}
			for i, root := range roots {
				res, err := r.Run(root)
				var layers nvm.StackStats
				var rs bfs.Resilience
				if err == nil {
					layers, rs = res.Layers, res.Resilience
				}
				step(fmt.Sprintf("Runner root %d", root), err, layers, rs)

				bres, err := br.RunBatch(roots[i:min(i+4, len(roots))])
				layers, rs = nil, bfs.Resilience{}
				if err == nil {
					layers, rs = bres.Layers, bres.Resilience
				}
				step(fmt.Sprintf("BatchRunner from root %d", root), err, layers, rs)

				vres, err := eng.Run(root)
				layers, rs = nil, bfs.Resilience{}
				if err == nil {
					layers, rs = vres.Layers, vres.Resilience
				}
				step(fmt.Sprintf("vp.Engine root %d", root), err, layers, rs)
			}
			if runs < len(roots) || (degraded > 0) != tc.degraded {
				t.Fatalf("%d runs completed, %d degraded; want at least %d, degraded %v", runs, degraded, len(roots), tc.degraded)
			}
			moved := []struct{ kind, name string }{{"mirror", "reads"}, {"faults", "dead"}}
			if !tc.degraded {
				moved = []struct{ kind, name string }{{"mirror", "failovers"}, {"checksum", "corruptions_detected"},
					{"mirror", "scrubbed_blocks"}, {"mirror", "repaired_blocks"}, {"cache", "evictions"}}
			}
			tot := refCollectStacks(stacks...)
			for _, c := range moved {
				if tot.Get(c.kind, c.name) == 0 {
					t.Errorf("the runs never moved %s.%s", c.kind, c.name)
				}
			}
		})
	}
}

package core

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/validate"
)

// TestCacheTreeIdentity checks the acceptance invariant of the cache
// layer: the BFS tree is bit-identical with the cache off, on, with
// readahead, and with the cache composed over injected faults and
// corruption — the cache may change timing, never traversal.
func TestCacheTreeIdentity(t *testing.T) {
	src := testSource(t, 9)
	topo := numa.Topology{Nodes: 4, CoresPerNode: 2}
	// Tree equality is exact, not just validity. Alpha=2 keeps the traversal
	// top-down for several levels, so the forward cache sees real reuse.
	cfg := bfs.Config{Topology: topo, Alpha: 2, Beta: 20}

	scenarios := []struct {
		name string
		sc   Scenario
	}{
		{"no-cache", ScenarioPCIeFlash},
		{"cache", ScenarioPCIeFlash.WithCache(1<<20, 0)},
		{"cache+readahead", ScenarioPCIeFlash.WithCache(1<<20, 4)},
		{"tiny-cache", ScenarioPCIeFlash.WithCache(8<<10, 2)},
		{"cache+faults", func() Scenario {
			sc := ScenarioPCIeFlash.WithCache(1<<20, 4)
			sc.Faults = faults.Config{Seed: 7, TransientRate: 0.02, CorruptRate: 0.02}
			sc.Checksums = true
			return sc
		}()},
	}

	var want []int64
	var root int64 = -1
	for _, tc := range scenarios {
		sys, err := Build(src, topo, tc.sc, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		runner, err := sys.NewRunner(cfg)
		if err != nil {
			t.Fatalf("%s: runner: %v", tc.name, err)
		}
		if root < 0 {
			// Any non-isolated vertex; the first root the no-cache run
			// reaches a nonzero tree from.
			for v := int64(0); v < src.NumVertices(); v++ {
				if sys.Backward.Degree(v) > 0 {
					root = v
					break
				}
			}
		}
		res, err := runner.Run(root)
		if err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		if _, err := validate.Run(res.Tree, root, src); err != nil {
			t.Fatalf("%s: validation: %v", tc.name, err)
		}
		tree := res.CloneTree()
		if want == nil {
			want = tree
		} else {
			for v := range want {
				if tree[v] != want[v] {
					t.Fatalf("%s: tree diverges at vertex %d: parent %d != %d",
						tc.name, v, tree[v], want[v])
				}
			}
		}
		cs := res.Layers.CacheView()
		if tc.sc.CacheBytes > 0 && cs.Hits == 0 {
			t.Fatalf("%s: cache configured but saw no hits (%+v)", tc.name, cs)
		}
		if tc.sc.CacheBytes == 0 && (cs.Hits != 0 || cs.Misses != 0) {
			t.Fatalf("%s: no cache configured but stats nonzero (%+v)", tc.name, cs)
		}
		sys.Close()
	}
}

// TestCacheDeterminism checks that two identical cached runs produce the
// same virtual time and the same cache counters.
func TestCacheDeterminism(t *testing.T) {
	src := testSource(t, 9)
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	cfg := bfs.Config{Topology: topo, Alpha: 100, Beta: 1000}
	sc := ScenarioSSD.WithCache(1<<20, 4)

	run := func() (*bfs.Result, error) {
		sys, err := Build(src, topo, sc, BuildOptions{})
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		runner, err := sys.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		return runner.Run(1)
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("virtual time differs across identical runs: %v != %v", a.Time, b.Time)
	}
	if ca, cb := a.Layers.CacheView(), b.Layers.CacheView(); ca != cb {
		t.Fatalf("cache stats differ across identical runs:\n%+v\n%+v", ca, cb)
	}
}

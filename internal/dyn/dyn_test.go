package dyn

import (
	"errors"
	"sort"
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

var testTopo = numa.Topology{Nodes: 2, CoresPerNode: 2}

// refGraph is a DRAM reference of the merged adjacency as per-vertex
// neighbor multisets, mutated in lockstep with the dynamic graph.
type refGraph struct {
	n   int64
	adj []map[int64]int
}

func newRefGraph(list *edgelist.List) *refGraph {
	rg := &refGraph{n: list.NumVertices, adj: make([]map[int64]int, list.NumVertices)}
	for v := range rg.adj {
		rg.adj[v] = map[int64]int{}
	}
	for _, e := range list.Edges {
		if e.U == e.V {
			continue
		}
		rg.adj[e.U][e.V]++
		rg.adj[e.V][e.U]++
	}
	return rg
}

func (rg *refGraph) apply(up Update) {
	if up.Del {
		delete(rg.adj[up.U], up.V)
		delete(rg.adj[up.V], up.U)
	} else {
		rg.adj[up.U][up.V] = 1
		rg.adj[up.V][up.U] = 1
	}
}

// toggleBatch deterministically generates size effective updates (every
// one changes state; duplicated base edges are left alone) and applies
// them to rg.
func (rg *refGraph) toggleBatch(rng *uint64, size int) []Update {
	var batch []Update
	for len(batch) < size {
		*rng = *rng*6364136223846793005 + 1442695040888963407
		u := int64(*rng>>33) % rg.n
		*rng = *rng*6364136223846793005 + 1442695040888963407
		v := int64(*rng>>33) % rg.n
		if u == v || rg.adj[u][v] > 1 {
			continue
		}
		up := Update{U: u, V: v, Del: rg.adj[u][v] == 1}
		rg.apply(up)
		batch = append(batch, up)
	}
	return batch
}

// verify checks every vertex's merged forward and backward reads against
// the reference.
func (rg *refGraph) verify(t *testing.T, g *Graph, tag string) {
	t.Helper()
	clock := vtime.NewClock(0)
	r := semiext.NewForwardReader(g.Forward(), clock)
	sc := semiext.NewBackwardScanner(g.Backward(), clock)
	for v := int64(0); v < rg.n; v++ {
		var got []int64
		for k := range g.Forward().PerNode {
			nbs, err := r.Neighbors(k, v)
			if err != nil {
				t.Fatalf("%s: v=%d k=%d: %v", tag, v, k, err)
			}
			got = append(got, nbs...)
		}
		var want []int64
		for nb, c := range rg.adj[v] {
			for j := 0; j < c; j++ {
				want = append(want, nb)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: v=%d forward degree %d, want %d", tag, v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: v=%d forward neighbors diverge at %d: %d != %d", tag, v, i, got[i], want[i])
			}
		}
		count := int64(0)
		if _, _, err := sc.Scan(g.Part.NodeOf(int(v)), v, func(nbs []int64) (int, bool) {
			count += int64(len(nbs))
			return len(nbs), false
		}); err != nil {
			t.Fatalf("%s: backward scan v=%d: %v", tag, v, err)
		}
		if count != int64(len(want)) {
			t.Fatalf("%s: v=%d backward scan %d neighbors, want %d", tag, v, count, len(want))
		}
	}
}

func genList(t *testing.T, scale int) (*edgelist.List, *numa.Partition) {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return list, numa.NewPartition(testTopo, int(list.NumVertices))
}

func testOptions(compress bool) Options {
	opts := Options{
		Backward: semiext.BackwardOptions{KeepEdges: 4},
	}
	if compress {
		opts.Forward = semiext.ForwardOptions{Compress: true, CacheBytes: 32 << 10, IndexInDRAM: true}
		opts.Backward.Compress = true
	}
	return opts
}

func TestDynApplyCompactRecover(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			list, part := genList(t, 8)
			rg := newRefGraph(list)
			media := NewMedia(nil)
			clock := vtime.NewClock(0)
			opts := testOptions(compress)
			g, err := Build(edgelist.ListSource{List: list}, part, media.Factory(), clock, opts)
			if err != nil {
				t.Fatal(err)
			}

			rng := uint64(0xabcdef12345)
			for b := 0; b < 8; b++ {
				batch := rg.toggleBatch(&rng, 25)
				applied, err := g.Apply(clock, batch)
				if err != nil {
					t.Fatalf("apply batch %d: %v", b, err)
				}
				if applied != len(batch) {
					t.Fatalf("batch %d: applied %d of %d effective updates", b, applied, len(batch))
				}
			}
			// No-op updates are validated away.
			someEdge := func() Update {
				for v := int64(0); v < rg.n; v++ {
					for nb := range rg.adj[v] {
						return Update{U: v, V: nb}
					}
				}
				t.Fatal("reference graph has no edges")
				return Update{}
			}()
			if applied, err := g.Apply(clock, []Update{someEdge}); err != nil || applied != 0 {
				t.Fatalf("duplicate insert: applied=%d err=%v, want 0 applied", applied, err)
			}
			rg.verify(t, g, "after updates")

			if err := g.Compact(clock); err != nil {
				t.Fatal(err)
			}
			if g.Generation() != 1 {
				t.Fatalf("generation %d after compact, want 1", g.Generation())
			}
			if adds, dels := g.PendingEdits(); adds != 0 || dels != 0 {
				t.Fatalf("pending (%d, %d) after compact, want none", adds, dels)
			}
			rg.verify(t, g, "after compact")

			// More updates on top of generation 1, then a clean restart.
			for b := 0; b < 4; b++ {
				if _, err := g.Apply(clock, rg.toggleBatch(&rng, 25)); err != nil {
					t.Fatal(err)
				}
			}
			rg.verify(t, g, "after post-compact updates")
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Recover(part, media.Factory(), vtime.NewClock(0), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Generation() != 1 {
				t.Fatalf("recovered generation %d, want 1", re.Generation())
			}
			if re.Stats().Applied != 100 {
				t.Fatalf("recovery replayed %d updates, want 100", re.Stats().Applied)
			}
			rg.verify(t, re, "after recovery")
		})
	}
}

// TestDynPowerCutDuringWALAppend cuts power mid-append: the failed batch
// must be invisible after recovery while every earlier batch survives.
func TestDynPowerCutDuringWALAppend(t *testing.T) {
	list, part := genList(t, 8)
	rg := newRefGraph(list)
	media := NewMedia(nil)
	clock := vtime.NewClock(0)
	opts := testOptions(false)

	// Boot 1: fault layer arms a torn write on the WAL's 4th write (the
	// genesis leaves the WAL empty; each batch is one write).
	ff := faults.NewFactory(media.Factory(), faults.Config{
		Seed: 3, CutAtWrite: 4, TornWrite: true, CutStores: "dyn-wal",
	})
	g, err := Build(edgelist.ListSource{List: list}, part, ff.Make, clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(7)
	applied := 0
	var lost []Update
	for b := 0; ; b++ {
		batch := rg.toggleBatch(&rng, 10)
		if _, err := g.Apply(clock, batch); err != nil {
			if !errors.Is(err, nvm.ErrPowerCut) {
				t.Fatalf("batch %d failed with %v, want power cut", b, err)
			}
			lost = batch
			break
		}
		applied += len(batch)
		if b > 10 {
			t.Fatal("power cut never fired")
		}
	}
	if !ff.Cut() {
		t.Fatal("factory does not report the cut")
	}
	// The host is down: the failed batch was rolled out of the reference.
	for i := len(lost) - 1; i >= 0; i-- {
		up := lost[i]
		rg.apply(Update{U: up.U, V: up.V, Del: !up.Del})
	}

	// Boot 2: same media, fresh (healthy) fault layer.
	re, err := Recover(part, media.Factory(), vtime.NewClock(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().Applied; got != int64(applied) {
		t.Fatalf("recovery replayed %d updates, want %d (torn batch dropped)", got, applied)
	}
	rg.verify(t, re, "after power cut in WAL append")
}

// TestDynPowerCutDuringCompaction cuts power while compaction is writing
// the shadow generation, and separately while it is appending the
// manifest flip record. Both must recover to the pre-compaction state.
func TestDynPowerCutDuringCompaction(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cutStores string
	}{
		{"during-shadow-write", ".g1"},
		{"during-flip", "dyn-manifest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			list, part := genList(t, 8)
			rg := newRefGraph(list)
			media := NewMedia(nil)
			clock := vtime.NewClock(0)
			opts := testOptions(true)

			ff := faults.NewFactory(media.Factory(), faults.Config{
				Seed: 9, CutAtWrite: 1, TornWrite: true, CutStores: tc.cutStores,
			})
			g, err := Build(edgelist.ListSource{List: list}, part, ff.Make, clock, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := uint64(99)
			total := 0
			for b := 0; b < 5; b++ {
				batch := rg.toggleBatch(&rng, 20)
				if _, err := g.Apply(clock, batch); err != nil {
					t.Fatalf("apply: %v", err)
				}
				total += len(batch)
			}
			err = g.Compact(clock)
			if err == nil {
				t.Fatal("compaction survived the power cut")
			}
			if !errors.Is(err, nvm.ErrPowerCut) {
				t.Fatalf("compact failed with %v, want power cut", err)
			}

			re, err := Recover(part, media.Factory(), vtime.NewClock(0), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Generation() != 0 {
				t.Fatalf("recovered generation %d, want 0 (flip must not have landed)", re.Generation())
			}
			if got := re.Stats().Applied; got != int64(total) {
				t.Fatalf("recovery replayed %d updates, want %d", got, total)
			}
			rg.verify(t, re, "after power cut in compaction")
		})
	}
}

// TestDynTailsShareForwardCache checks that a dynamic graph with a page
// cache and NVM backward tails reads the tails through that cache — one
// DRAM budget serves both graphs, as in a static build — in every
// generation: the first build, a compaction, a recovery.
func TestDynTailsShareForwardCache(t *testing.T) {
	list, part := genList(t, 8)
	media := NewMedia(nil)
	clock := vtime.NewClock(0)
	opts := Options{
		Forward:  semiext.ForwardOptions{CacheBytes: 256 << 10},
		Backward: semiext.BackwardOptions{KeepEdges: 2},
	}
	check := func(g *Graph, tag string) {
		t.Helper()
		hb := g.Backward()
		if hb.TailEdges() == 0 {
			t.Fatalf("%s: no tail edges on NVM", tag)
		}
		sc := semiext.NewBackwardScanner(hb, clock)
		scanAll := func() {
			for v := int64(0); v < list.NumVertices; v++ {
				if _, _, err := sc.Scan(part.NodeOf(int(v)), v, func(nbs []int64) (int, bool) { return len(nbs), false }); err != nil {
					t.Fatalf("%s: backward scan v=%d: %v", tag, v, err)
				}
			}
		}
		scanAll() // warm: every tail block is now cached
		warm := hb.LayerStats()
		scanAll()
		st := hb.LayerStats().Sub(warm)
		if hits, misses := st.Get("cache", "hits"), st.Get("cache", "misses"); hits == 0 || misses != 0 {
			t.Fatalf("%s: warm tail scan saw %d cache hits, %d misses; want every read to hit", tag, hits, misses)
		}
	}

	g, err := Build(edgelist.ListSource{List: list}, part, media.Factory(), clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	check(g, "build")
	if err := g.Compact(clock); err != nil {
		t.Fatal(err)
	}
	check(g, "compact")
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Recover(part, media.Factory(), clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "recover")
}

// TestApplyChargesItsOwnClock applies two batches on two clocks. The second
// Apply's validation reads and WAL append land on its own clock, costing
// exactly what they cost on a twin graph that keeps one clock, and the
// first clock stays put.
func TestApplyChargesItsOwnClock(t *testing.T) {
	list, part := genList(t, 8)
	rg := newRefGraph(list)
	rng := uint64(0xc10c)
	b1, b2 := rg.toggleBatch(&rng, 20), rg.toggleBatch(&rng, 20)
	build := func() *Graph {
		media := NewMedia(nvm.NewDevice(nvm.ProfileIoDrive2, 0))
		g, err := Build(edgelist.ListSource{List: list}, part, media.Factory(), vtime.NewClock(0), testOptions(false))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	apply := func(g *Graph, clock *vtime.Clock, batch []Update) {
		if applied, err := g.Apply(clock, batch); err != nil || applied != len(batch) {
			t.Fatalf("applied %d of %d: %v", applied, len(batch), err)
		}
	}

	one := build()
	defer one.Close()
	clock := vtime.NewClock(0)
	apply(one, clock, b1)
	start := clock.Now()
	apply(one, clock, b2)
	want := clock.Now() - start

	two := build()
	defer two.Close()
	c1 := vtime.NewClock(0)
	apply(two, c1, b1)
	mark := c1.Now()
	c2 := vtime.NewClock(mark)
	apply(two, c2, b2)
	if c1.Now() != mark {
		t.Errorf("the first clock moved by %v during an Apply on the second", c1.Now()-mark)
	}
	if got := c2.Now() - mark; got != want {
		t.Errorf("the second Apply charged %v to its clock, want %v", got, want)
	}
}

package main

import (
	"fmt"
	"sort"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// dynSpec is dyn-pcie's frozen shape: rounds of {apply a batch of updates,
// repair the kept tree, one full BFS}, a compaction every compactEvery
// rounds (not after the last), then close, recover and compare.
type dynSpec struct {
	scale, rounds, batch, compactEvery int
}

var dynPCIeSpec = dynSpec{scale: 14, rounds: 64, batch: 64, compactEvery: 16}

func (s dynSpec) sized(small bool) dynSpec {
	if small {
		return dynSpec{scale: 10, rounds: 8, batch: 16, compactEvery: 4}
	}
	return s
}

var dynPCIe = &workload{
	name:   "dyn-pcie",
	why:    "dyn.Graph on PCIe: 64 rounds of 64 WAL-first updates, tree repair and a BFS, 3 compactions, then recover; the nvm stack takes writes beside reads, so a read-path gain that costs the write path shows",
	opDesc: "one round: dyn.Graph.Apply of 64 updates, bfs.RepairTree, one hybrid BFS (plus Compact after rounds 16/32/48)",
	run:    func(ctx *runCtx) (*pass, error) { return runDyn(ctx, dynPCIeSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		memstoreLoop(out)
		return walLoop(ctx, out)
	},
}

// edgeKey packs an undirected edge, smaller endpoint first.
func edgeKey(u, v int64) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// updateStream generates the seeded update stream and keeps the truth the
// program's graph must match: which original edges are deleted, which new
// edges exist. Every update it emits is valid against that truth (deletes
// hit present edges, inserts hit absent ones), so none is skipped, and no
// edge is touched twice.
type updateStream struct {
	r       *rng
	list    *edgelist.List
	orig    []uint64        // sorted keys of the original tuples (duplicates kept)
	touched map[uint64]bool // edge -> present now
	added   []edgelist.Edge
	deg     []int64
}

func newUpdateStream(list *edgelist.List, deg []int64, seed uint64) *updateStream {
	us := &updateStream{
		r: newRNG(seed, 0x75706461746573), list: list,
		touched: map[uint64]bool{}, deg: append([]int64(nil), deg...),
	}
	for _, e := range list.Edges {
		if e.U != e.V {
			us.orig = append(us.orig, edgeKey(e.U, e.V))
		}
	}
	sort.Slice(us.orig, func(i, j int) bool { return us.orig[i] < us.orig[j] })
	return us
}

// multiplicity is how many original tuples carry edge k.
func (us *updateStream) multiplicity(k uint64) int64 {
	lo := sort.Search(len(us.orig), func(i int) bool { return us.orig[i] >= k })
	hi := sort.Search(len(us.orig), func(i int) bool { return us.orig[i] > k })
	return int64(hi - lo)
}

func (us *updateStream) next(n int) []dyn.Update {
	out := make([]dyn.Update, 0, n)
	for len(out) < n {
		var up dyn.Update
		if us.r.next()&1 == 0 {
			e := us.list.Edges[us.r.intn(int64(len(us.list.Edges)))]
			up = dyn.Update{U: e.U, V: e.V, Del: true}
		} else {
			up = dyn.Update{U: us.r.intn(us.list.NumVertices), V: us.r.intn(us.list.NumVertices)}
		}
		k := edgeKey(up.U, up.V)
		if _, seen := us.touched[k]; seen || up.U == up.V {
			continue
		}
		m := us.multiplicity(k)
		if !up.Del && m > 0 {
			continue // already an edge
		}
		if up.Del {
			// A deletion removes every stored copy of the edge.
			us.deg[up.U] -= m
			us.deg[up.V] -= m
		} else {
			us.deg[up.U]++
			us.deg[up.V]++
			us.added = append(us.added, edgelist.Edge{U: up.U, V: up.V})
		}
		us.touched[k] = !up.Del
		out = append(out, up)
	}
	return out
}

// NumVertices, NumEdges and ForEach make the stream's truth an
// edgelist.Source: the original tuples minus the deleted edges, plus the
// inserted ones.
func (us *updateStream) NumVertices() int64 { return us.list.NumVertices }

func (us *updateStream) NumEdges() int64 {
	var n int64
	us.ForEach(func(edgelist.Edge) error { n++; return nil })
	return n
}

func (us *updateStream) ForEach(fn func(e edgelist.Edge) error) error {
	for _, e := range us.list.Edges {
		if present, seen := us.touched[edgeKey(e.U, e.V)]; seen && !present {
			continue
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	for _, e := range us.added {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

func (us *updateStream) snapshot() *edgelist.List {
	out := &edgelist.List{NumVertices: us.list.NumVertices}
	us.ForEach(func(e edgelist.Edge) error { out.Edges = append(out.Edges, e); return nil })
	return out
}

// dynGraph is the dynamic graph plus the engines bound to its current
// generation (a compaction installs new graph handles, so they are rebuilt).
type dynGraph struct {
	g      *dyn.Graph
	part   *numa.Partition
	hybrid *bfs.Runner
	td     *bfs.Runner
}

func (d *dynGraph) bind() error {
	fwd := bfs.NVMForward{SF: d.g.Forward()}
	var err error
	if d.hybrid, err = bfs.NewRunner(fwd, d.backward(), d.part, bfsConfig(bfs.ModeHybrid)); err != nil {
		return err
	}
	d.td, err = bfs.NewRunner(fwd, d.backward(), d.part, bfsConfig(bfs.ModeTopDownOnly))
	return err
}

func (d *dynGraph) backward() bfs.BackwardAccess { return bfs.HybridBackwardAccess{HB: d.g.Backward()} }

func runDyn(ctx *runCtx, spec dynSpec) (*pass, error) {
	p := newPass()
	tr := ctx.tr
	tr.setOp(-1)
	tr.begin("harness", "setup", nil)
	list, err := genGraph(tr, p, spec.scale, ctx.graphSeed)
	if err != nil {
		return nil, err
	}
	sc := scaled(core.ScenarioPCIeFlash, spec.scale)
	opts, err := sc.DynamicOptions()
	if err != nil {
		return nil, err
	}
	devs := newDevices(sc)
	media := dyn.NewMedia(devs[0]).Factory()
	mk := func(name string, chunk int) (nvm.Storage, error) {
		st, err := media(name, chunk)
		return traceBase(tr, st), err
	}
	src := edgelist.ListSource{List: list}
	clock := vtime.NewClock(0)
	d := &dynGraph{part: numa.NewPartition(topology, int(list.NumVertices))}
	err = timeStep(tr, p.steps, "engine.s", "dyn", "Build", func() error {
		var err error
		if d.g, err = dyn.Build(src, d.part, mk, clock, opts); err != nil {
			return err
		}
		return d.bind()
	})
	if err != nil {
		return nil, err
	}
	defer func() { d.g.Close() }()
	tr.end(nil)

	deg := make([]int64, list.NumVertices)
	for v := range deg {
		deg[v] = d.g.Backward().Degree(int64(v))
	}
	roots, err := sampleRoots(list, spec.rounds+1, ctx)
	if err != nil {
		return nil, err
	}
	keptRoot, roots := roots[0], roots[1:]
	us := newUpdateStream(list, deg, ctx.seed)
	p.note("SCALE %d, %d rounds x %d updates, compaction every %d rounds, %s",
		spec.scale, spec.rounds, spec.batch, spec.compactEvery, describeScenario(sc))

	// The tree the rounds keep repaired: the canonical top-down tree of
	// keptRoot over generation 0.
	res, err := d.td.Run(keptRoot)
	if err != nil {
		return nil, err
	}
	st := bfs.NewTreeState(keptRoot, res.Tree)
	// The update path (clock) and each BFS engine keep separate virtual
	// timelines while the device keeps absolute queue state, so the device
	// is reset at every switch between them; dlog banks its statistics.
	dlog := newDeviceLog(devs)
	dlog.discard()

	var applySim, repairSim, compactSim, bfsSim vtime.Duration
	var applyHost, repairHost, compactHost time.Duration
	var agg bfsAgg
	for i := 0; i < spec.rounds; i++ {
		batch := us.next(spec.batch)
		eu := make([]bfs.EdgeUpdate, len(batch))
		for j, up := range batch {
			eu[j] = bfs.EdgeUpdate{U: up.U, V: up.V, Del: up.Del}
		}
		tr.setOp(i)
		tr.begin("harness", "op", nil)
		p.meter.start()
		p.attempted++
		var roundSim vtime.Duration
		var applied int
		var rst bfs.RepairStats
		var out *bfs.Result

		dlog.flush()
		c0, t0 := clock.Now(), time.Now()
		tr.begin("dyn", "Apply", clock)
		applied, err = d.g.Apply(clock, batch)
		tr.end(clock)
		applySim += clock.Now() - c0
		applyHost += time.Since(t0)
		if err == nil {
			c1, t1 := clock.Now(), time.Now()
			tr.begin("bfs", "RepairTree", clock)
			rst, err = bfs.RepairTree(st, eu, d.backward(), d.part, clock)
			tr.end(clock)
			repairSim += clock.Now() - c1
			repairHost += time.Since(t1)
		}
		roundSim = clock.Now() - c0
		if err == nil {
			dlog.flush()
			tr.begin("bfs", "Run", nil)
			out, err = d.hybrid.Run(roots[i])
			tr.endSim(resTime(out))
		}
		if err == nil && (i+1)%spec.compactEvery == 0 && i+1 < spec.rounds {
			dlog.flush()
			c2, t2 := clock.Now(), time.Now()
			tr.begin("dyn", "Compact", clock)
			if err = d.g.Compact(clock); err == nil {
				err = d.bind()
			}
			tr.end(clock)
			compactSim += clock.Now() - c2
			compactHost += time.Since(t2)
			roundSim = clock.Now() - c0
		}
		p.meter.stop()
		tr.end(nil)
		if err != nil {
			p.fail("round %d: %v", i, err)
			return p, nil // the graph's state is unknown; later rounds would only cascade
		}
		if applied != len(batch) {
			p.fail("round %d: Apply accepted %d of %d valid updates", i, applied, len(batch))
		}
		bfsSim += out.Time
		edges := traversedEdges(out.Tree, us.deg)
		p.sim = append(p.sim, simOp{simS: (roundSim + out.Time).Seconds(), edges: edges, tepsS: out.Time.Seconds()})
		p.examined += out.ExaminedTD + out.ExaminedBU + rst.EdgesScanned
		agg.add(out)
		p.digestf("round %d root %d applied %d sim %d bfs %d visited %d repair-edges %d tree %x kept %x",
			i, roots[i], applied, roundSim, out.Time, out.Visited, rst.EdgesScanned, hashTree(out.Tree), hashTree(st.Parent))

		if ctx.validate {
			tree := out.Tree
			if ctx.corruptTree && i == 0 {
				tree = corrupted(tree, roots[i])
			}
			tr.begin("validate", "Run", nil)
			rep, err := validate.Run(tree, roots[i], us)
			tr.end(nil)
			switch {
			case err != nil:
				p.fail("round %d root %d: %v", i, roots[i], err)
			case rep.Visited != out.Visited || rep.TraversedEdges != edges:
				p.fail("round %d root %d: validator saw %d vertices / %d edges, run reported %d / %d",
					i, roots[i], rep.Visited, rep.TraversedEdges, out.Visited, edges)
			}
			if (i+1)%8 == 0 {
				dlog.flush()
				if err := sameDepths(d.td, keptRoot, st.Parent); err != nil {
					p.fail("round %d: repaired tree of root %d: %v", i, keptRoot, err)
				}
				dlog.discard()
			}
		}
	}
	tr.setOp(-1)

	stats := d.g.Stats()
	updates := float64(stats.Applied)
	usec := float64(vtime.Microsecond)
	p.layer["sim_update_us"] = ratio(float64(applySim+repairSim+compactSim)/usec, updates)
	p.layer["dyn.apply_sim_us_per_update"] = ratio(float64(applySim)/usec, updates)
	p.layer["dyn.apply_host_us_per_update"] = ratio(float64(applyHost.Microseconds()), updates)
	p.layer["dyn.compactions"] = float64(stats.Compactions)
	p.layer["dyn.compact_sim_s"] = compactSim.Seconds()
	p.layer["dyn.compact_host_s"] = compactHost.Seconds()
	p.layer["bfs.repair_sim_us"] = ratio(float64(repairSim)/usec, float64(spec.rounds))
	p.layer["bfs.repair_host_us"] = ratio(float64(repairHost.Microseconds()), float64(spec.rounds))
	p.layer["bfs.repair_vs_rebuild"] = ratio(float64(repairSim), float64(bfsSim))
	p.layer["nvm.wal.appends"] = float64(stats.WALAppends)
	p.layer["nvm.wal.bytes"] = float64(stats.WALBytes)
	agg.report(p.layer)
	sf, hb := d.g.Forward(), d.g.Backward()
	p.layer["semiext.overlay_bytes"] = float64(overlayBytes(sf.Overlay()) + overlayBytes(hb.Overlay()))
	p.raw = sf.ValueBytesRaw + int64(len(sf.PerNode))*(list.NumVertices+1)*8 + hb.DRAMBytes()
	p.dram = sf.DRAMBytes() + hb.DRAMBytes() + overlayBytes(sf.Overlay()) + overlayBytes(hb.Overlay()) + d.hybrid.StatusBytes()
	layers := nvm.CollectStacks(append(sf.Stacks(), hb.Stacks()...)...)
	storageMetrics(p.layer, layers, dlog, sf, 0)
	p.digestf("stats %+v sims %d %d %d", stats, applySim, repairSim, compactSim)

	// Close and reopen: recovery reads the manifest, reopens the live
	// generation and replays the WAL suffix.
	if err := d.g.Close(); err != nil {
		return nil, err
	}
	dlog.discard() // recovery runs on its own clock, from an idle device
	rclock := vtime.NewClock(0)
	t0 := time.Now()
	tr.begin("dyn", "Recover", rclock)
	g2, err := dyn.Recover(d.part, mk, rclock, opts)
	tr.end(rclock)
	p.attempted++
	if err != nil {
		p.fail("recover: %v", err)
		return p, nil
	}
	d.g = g2
	p.layer["dyn.recover_host_s"] = time.Since(t0).Seconds()
	p.layer["sim_recover_s"] = rclock.Now().Seconds()
	p.digestf("recover %d replayed %d", rclock.Now(), g2.Stats().Applied)
	if ctx.validate {
		if err := d.bind(); err != nil {
			return nil, err
		}
		if err := sameAsRebuild(d, us, sc, roots[0]); err != nil {
			p.fail("recovered graph: %v", err)
		}
	}
	return p, nil
}

// sameDepths checks a repaired tree against a fresh BFS from the same root
// over the current graph: every vertex at the same depth.
func sameDepths(fresh *bfs.Runner, root int64, repaired []int64) error {
	res, err := fresh.Run(root)
	if err != nil {
		return err
	}
	return equalDepths(root, res.Tree, repaired)
}

func equalDepths(root int64, a, b []int64) error {
	da, err := bfs.DepthsFromTree(root, a)
	if err != nil {
		return err
	}
	db, err := bfs.DepthsFromTree(root, b)
	if err != nil {
		return err
	}
	for v := range da {
		if da[v] != db[v] {
			return fmt.Errorf("vertex %d at depth %d, want %d", v, db[v], da[v])
		}
	}
	return nil
}

// sameAsRebuild compares a BFS over the recovered graph with one over a
// fresh static build of the stream's truth.
func sameAsRebuild(d *dynGraph, us *updateStream, sc core.Scenario, root int64) error {
	sys, err := buildSystem(nil, stepTimes{}, us.snapshot(), sc)
	if err != nil {
		return err
	}
	defer sys.close()
	runner, err := bfs.NewRunner(sys.fwd, sys.bwd, sys.part, bfsConfig(bfs.ModeHybrid))
	if err != nil {
		return err
	}
	want, err := runner.Run(root)
	if err != nil {
		return err
	}
	got, err := d.hybrid.Run(root)
	if err != nil {
		return err
	}
	if got.Visited != want.Visited {
		return fmt.Errorf("BFS from %d visits %d vertices, fresh rebuild %d", root, got.Visited, want.Visited)
	}
	return equalDepths(root, want.Tree, got.Tree)
}

// walLoop measures the virtual cost of one WAL append of a 64-update batch
// on the workload's device, outside the graph.
func walLoop(ctx *runCtx, out map[string]float64) error {
	spec := dynPCIeSpec.sized(ctx.small)
	devs := newDevices(scaled(core.ScenarioPCIeFlash, spec.scale))
	wal := nvm.NewWALStore("bench-wal", nvm.NewNamedMemStore("bench-wal", devs[0], 0))
	clock := vtime.NewClock(0)
	payload := make([]byte, 17*spec.batch)
	const appends = 256
	for i := 0; i < appends; i++ {
		if _, err := wal.Append(clock, payload); err != nil {
			return err
		}
	}
	out["nvm.wal.append_sim_us"] = float64(clock.Now()) / float64(vtime.Microsecond) / appends
	return wal.Close()
}

package main

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
)

// gridSpec is grid-4x4's frozen shape: a 2D rows x cols cluster whose every
// machine carries a PCIe stack with compression and a page cache, and whose
// wire formats are compressed too.
type gridSpec struct {
	scale, rows, cols, roots int
	cacheBytes               int64
}

var grid4x4Spec = gridSpec{scale: 14, rows: 4, cols: 4, roots: 64, cacheBytes: 64 << 10}

func (s gridSpec) sized(small bool) gridSpec {
	if small {
		s.scale, s.roots, s.cacheBytes = 10, 8, 64<<10
	}
	return s
}

func (s gridSpec) config(tr *tracer) cluster.Config {
	sc := core.ScenarioPCIeFlash.WithIO(true, 0, 0).WithCache(s.cacheBytes, 0).WithGrid(s.rows, s.cols)
	cfg := scaled(sc, s.scale).ClusterConfig()
	cfg.Alpha, cfg.Beta, cfg.RealWorkers = 1e4, 1e5, 1
	if tr != nil {
		cfg.WrapBase = func(_ int, _ string, inner nvm.Storage) nvm.Storage { return traceBase(tr, inner) }
	}
	return cfg
}

var grid4x4 = &workload{
	name:   "grid-4x4",
	why:    "2D 4x4 cluster grid, per-node PCIe stacks (compress, 1 MiB cache) and compressed wire formats: cluster level loops, wire codecs and per-phase communication do the work",
	opDesc: "one distributed hybrid BFS from a sampled root (virtual time = sum of its level times)",
	run:    func(ctx *runCtx) (*pass, error) { return runGrid(ctx, grid4x4Spec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		memstoreLoop(out)
		return gridCounterfactuals(ctx, out)
	},
}

// gridTime is a run's virtual duration. cluster.Result.Time is the grid's
// absolute clock (it grows from run to run), so the harness sums the level
// durations instead.
func gridTime(res *cluster.Result) float64 {
	var s float64
	for _, l := range res.Levels {
		s += l.Time.Seconds()
	}
	return s
}

func runGrid(ctx *runCtx, spec gridSpec) (*pass, error) {
	p := newPass()
	tr := ctx.tr
	tr.setOp(-1)
	tr.begin("harness", "setup", nil)
	list, err := genGraph(tr, p, spec.scale, ctx.graphSeed)
	if err != nil {
		return nil, err
	}
	src := edgelist.ListSource{List: list}
	var g *cluster.Grid
	err = timeStep(tr, p.steps, "cluster.new_s", "cluster", "BuildGrid", func() error {
		var err error
		g, err = cluster.BuildGrid(src, spec.config(tr))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	tr.end(nil)
	deg, err := csr.Degrees(src)
	if err != nil {
		return nil, err
	}
	roots, err := sampleRoots(list, spec.roots, ctx)
	if err != nil {
		return nil, err
	}
	p.note("SCALE %d, %dx%d grid, %d roots, per-node PCIe stacks, compress, cache %d B, compressed wire",
		spec.scale, spec.rows, spec.cols, len(roots), spec.cacheBytes)

	// The oracle for bit-identical trees: the single-node DRAM runner.
	var ref *bfs.Runner
	if ctx.validate {
		sys, err := buildSystem(nil, stepTimes{}, list, core.ScenarioDRAMOnly)
		if err != nil {
			return nil, err
		}
		defer sys.close()
		if ref, err = bfs.NewRunner(sys.fwd, sys.bwd, sys.part, bfsConfig(bfs.ModeHybrid)); err != nil {
			return nil, err
		}
	}

	var comm cluster.CommStats
	var reads, readBytes int64
	var switches, degraded int
	for i, root := range roots {
		tr.setOp(i)
		tr.begin("harness", "op", nil)
		p.meter.start()
		tr.begin("cluster", "Run", nil)
		res, err := g.Run(root)
		var simS float64
		if err == nil {
			simS = gridTime(res)
		}
		tr.endSim(int64(simS * 1e9))
		p.meter.stop()
		p.attempted++
		if err != nil {
			p.fail("op %d root %d: %v", i, root, err)
			tr.end(nil)
			continue
		}
		edges := traversedEdges(res.Tree, deg)
		p.sim = append(p.sim, simOp{simS: simS, edges: edges, tepsS: simS})
		for _, l := range res.Levels {
			p.examined += l.Examined
		}
		comm.TDFrontier += res.Comm.TDFrontier
		comm.TDCandidate += res.Comm.TDCandidate
		comm.BUAllgather += res.Comm.BUAllgather
		comm.BURing += res.Comm.BURing
		comm.Control += res.Comm.Control
		switches += res.Switches
		if res.Degraded {
			degraded++
		}
		// Run resets every machine's device at entry, so the report after
		// a run holds that run's traffic alone.
		for _, m := range g.MachineReport() {
			reads += m.Device.Reads
			readBytes += m.Device.ReadBytes
		}
		p.digestf("op %d root %d sim %v visited %d comm %+v switches %d tree %x",
			i, root, simS, res.Visited, res.Comm, res.Switches, hashTree(res.Tree))
		if ctx.validate {
			tree := res.Tree
			if ctx.corruptTree && i == 0 {
				tree = corrupted(tree, root)
			}
			tr.begin("validate", "Run", nil)
			_, verr := validate.Run(tree, root, src)
			tr.end(nil)
			if verr != nil {
				p.fail("op %d root %d: %v", i, root, verr)
			} else if err := sameTree(ref, root, tree); err != nil {
				p.fail("op %d root %d: %v", i, root, err)
			}
		}
		tr.end(nil)
	}
	tr.setOp(-1)

	n := float64(len(roots))
	p.layer["cluster.comm_bytes_per_bfs"] = ratio(float64(comm.Total()), n)
	p.layer["cluster.td_bytes"] = ratio(float64(comm.TopDownBytes()), n)
	p.layer["cluster.bu_allgather_bytes"] = ratio(float64(comm.BUAllgather), n)
	p.layer["cluster.bu_ring_bytes"] = ratio(float64(comm.BURing), n)
	p.layer["cluster.control_bytes"] = ratio(float64(comm.Control), n)
	p.layer["bfs.switches"] = ratio(float64(switches), n)
	p.layer["bfs.degraded_runs"] = float64(degraded)
	p.layer["nvm.device.reads"] = float64(reads)
	p.layer["nvm.device.read_bytes"] = float64(readBytes)

	// cluster.Grid exports no byte accounting, so sim_dram_frac is modelled
	// from what the grid keeps where: the bottom-up blocks stay in DRAM (the
	// degraded-mode residence), the top-down blocks are offloaded, and every
	// machine holds its cache budget.
	var directed int64
	for _, d := range deg {
		directed += d
	}
	nv := list.NumVertices
	td := 8 * (directed + int64(spec.rows)*(nv+int64(spec.cols)))
	bu := 8 * (directed + int64(spec.cols)*(nv+int64(spec.rows)))
	p.dram = bu + int64(spec.rows*spec.cols)*spec.cacheBytes
	p.raw = td + bu
	return p, nil
}

// sameTree checks tree against the reference runner's tree for root, entry
// by entry.
func sameTree(ref *bfs.Runner, root int64, tree []int64) error {
	want, err := ref.Run(root)
	if err != nil {
		return err
	}
	for v := range tree {
		if tree[v] != want.Tree[v] {
			return fmt.Errorf("tree[%d] = %d, single-node DRAM runner has %d", v, tree[v], want.Tree[v])
		}
	}
	return nil
}

// gridCounterfactuals measures two things the grid does not report by
// rerunning diagRoots roots under a changed configuration: the share of
// virtual time lost to the interconnect (against a near-free network) and
// the wire codecs' compression (against raw wire formats).
func gridCounterfactuals(ctx *runCtx, out map[string]float64) error {
	spec := grid4x4Spec.sized(ctx.small)
	list, err := genGraph(nil, newPass(), spec.scale, ctx.graphSeed)
	if err != nil {
		return err
	}
	src := edgelist.ListSource{List: list}
	roots, err := sampleRoots(list, diagRoots, ctx)
	if err != nil {
		return err
	}
	run := func(cfg cluster.Config) (simS float64, bytes int64, err error) {
		g, err := cluster.BuildGrid(src, cfg)
		if err != nil {
			return 0, 0, err
		}
		defer g.Close()
		for _, root := range roots {
			res, err := g.Run(root)
			if err != nil {
				return 0, 0, err
			}
			simS += gridTime(res)
			bytes += res.CommBytes
		}
		return simS, bytes, nil
	}
	base, encoded, err := run(spec.config(nil))
	if err != nil {
		return err
	}
	fast := spec.config(nil)
	fast.Net = cluster.NetworkModel{Latency: 1, Bandwidth: 1e18}
	free, _, err := run(fast)
	if err != nil {
		return err
	}
	rawCfg := spec.config(nil)
	rawCfg.Compress = false
	_, raw, err := run(rawCfg)
	if err != nil {
		return err
	}
	out["cluster.comm_sim_frac"] = 1 - ratio(free, base)
	out["cluster.wire_ratio"] = ratio(float64(raw), float64(encoded))
	return nil
}

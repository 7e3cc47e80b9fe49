package main

import (
	"fmt"
	"runtime"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/power"
	"semibfs/internal/validate"
)

// bfsSpec is the frozen shape of a single-node Graph500-protocol workload.
type bfsSpec struct {
	scale    int
	roots    int
	scenario core.Scenario
	mode     bfs.Mode
}

// The two g500 workloads share one graph and one root sample per seed
// (SCALE 16, 256 search keys) and differ only in placement. td-ssd-stack examines every edge
// through the storage stack, which costs ~20x the host time per BFS, so it
// runs two scales lower to fit the same time budget.
const (
	bfsScale = 16
	tdScale  = 14
	// g500Roots is four times Graph500's 64 search keys: a hybrid BFS costs
	// ~6 host ms, so 64 of them are under half a second of measurement and
	// their median moves with every burst of machine noise; per-root virtual
	// time is bimodal (one level more or less), so 64 samples also leave the
	// sim_* quantiles 10% apart between root samples.
	g500Roots = 256
	tdRoots   = 64
	// tdCacheBytes is td-ssd-stack's page-cache budget: 1/8 of one replica
	// of the compressed forward graph's NVM bytes at SCALE 14 (1,337,764 B
	// at the default seed, from -calibrate), rounded to whole 4 KiB pages.
	// The working set exceeds it, so the cache evicts.
	tdCacheBytes = 164 << 10
)

func (s bfsSpec) sized(small bool) bfsSpec {
	if small {
		s.scale, s.roots = 10, 8
		if s.scenario.CacheBytes > 0 {
			s.scenario.CacheBytes = 16 << 10
		}
	}
	s.scenario = scaled(s.scenario, s.scale)
	return s
}

var g500DRAMSpec = bfsSpec{scale: bfsScale, roots: g500Roots, scenario: core.ScenarioDRAMOnly, mode: bfs.ModeHybrid}

var g500PCIeSpec = bfsSpec{scale: bfsScale, roots: g500Roots, scenario: core.ScenarioPCIeFlash, mode: bfs.ModeHybrid}

var tdSSDSpec = bfsSpec{scale: tdScale, roots: tdRoots, mode: bfs.ModeTopDownOnly, scenario: tdScenario()}

// tdScenario is the full stack: compress, queue depth 8, frontier prefetch
// 16, page cache, 2 replicas, checksums.
func tdScenario() core.Scenario {
	sc := core.ScenarioSSD.WithIO(true, 8, 16).WithCache(tdCacheBytes, 0).WithReplicas(2, 0)
	sc.Checksums = true
	return sc
}

var g500DRAM = &workload{
	name:   "g500-dram",
	why:    "control: bfs kernels, bitmap, csr and the numa cost model do all the work, nvm/semiext/enc none, so every storage-stack change must predict no change here",
	opDesc: "one hybrid BFS (alpha=1e4, beta=1e5) from a sampled root",
	run:    func(ctx *runCtx) (*pass, error) { return runBFS(ctx, g500DRAMSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		bitmapLoops(out)
		return parSpeedup(ctx, out)
	},
}

var g500PCIe = &workload{
	name:   "g500-pcie",
	why:    "the paper's headline DRAM+PCIeFlash configuration (forward graph raw on ioDrive2, no cache): the device is touched only in the few top-down levels; setup_s is dominated by the offload",
	opDesc: "one hybrid BFS (alpha=1e4, beta=1e5) from a sampled root",
	run:    func(ctx *runCtx) (*pass, error) { return runBFS(ctx, g500PCIeSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		memstoreLoop(out)
		return degradation(ctx, out)
	},
}

var tdSSDStack = &workload{
	name:   "td-ssd-stack",
	why:    "top-down only on SSD 320 through the full stack (compress, cache 1/8 of NVM bytes, queue depth 8, prefetch 16, 2 replicas, checksums): nvm layers, enc decode and semiext readers do most of the work",
	opDesc: "one top-down-only BFS from a sampled root",
	run:    func(ctx *runCtx) (*pass, error) { return runBFS(ctx, tdSSDSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		memstoreLoop(out)
		if err := stackLoops(ctx, out); err != nil {
			return err
		}
		return workersSkew(ctx, out)
	},
}

// runBFS is the Graph500 protocol: build, then one timed BFS per sampled
// root; validation runs after each op's timer has stopped.
func runBFS(ctx *runCtx, spec bfsSpec) (*pass, error) {
	p := newPass()
	tr := ctx.tr
	tr.setOp(-1)
	tr.begin("harness", "setup", nil)
	list, err := genGraph(tr, p, spec.scale, ctx.graphSeed)
	if err != nil {
		return nil, err
	}
	sys, err := buildSystem(tr, p.steps, list, spec.scenario)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	runner, err := sys.newRunner(tr, p.steps, bfsConfig(spec.mode))
	if err != nil {
		return nil, err
	}
	tr.end(nil)
	roots, err := sampleRoots(sys.list, spec.roots, ctx)
	if err != nil {
		return nil, err
	}
	p.note("%s SCALE %d, %d roots, %s; modelled caches empty at op 0, warm across ops",
		spec.mode, spec.scale, len(roots), describeScenario(spec.scenario))

	layers0 := sys.layerTotals()
	var agg bfsAgg
	var validateMs float64
	for i, root := range roots {
		tr.setOp(i)
		tr.begin("harness", "op", nil)
		p.meter.start()
		tr.begin("bfs", "Run", nil)
		res, err := runner.Run(root)
		tr.endSim(resTime(res))
		p.meter.stop()
		p.attempted++
		if err != nil {
			p.fail("op %d root %d: %v", i, root, err)
			tr.end(nil)
			continue
		}
		edges := traversedEdges(res.Tree, sys.deg)
		p.sim = append(p.sim, simOp{simS: res.Time.Seconds(), edges: edges, tepsS: res.Time.Seconds()})
		p.examined += res.ExaminedTD + res.ExaminedBU
		agg.add(res)
		p.digestf("op %d root %d time %d visited %d td %d bu %d nvm %d switches %d tree %x",
			i, root, res.Time, res.Visited, res.ExaminedTD, res.ExaminedBU, res.ExaminedNVM, res.Switches, hashTree(res.Tree))
		if ctx.validate {
			tree := res.Tree
			if ctx.corruptTree && i == 0 {
				tree = corrupted(tree, root)
			}
			t0 := time.Now()
			tr.begin("validate", "Run", nil)
			rep, err := validate.Run(tree, root, sys.src)
			tr.end(nil)
			validateMs += float64(time.Since(t0).Nanoseconds()) / 1e6
			switch {
			case err != nil:
				p.fail("op %d root %d: %v", i, root, err)
			case rep.Visited != res.Visited || rep.TraversedEdges != edges:
				p.fail("op %d root %d: validator saw %d vertices / %d edges, run reported %d / %d",
					i, root, rep.Visited, rep.TraversedEdges, res.Visited, edges)
			}
		}
		tr.end(nil)
	}
	tr.setOp(-1)
	p.dram, p.raw = sys.dramBytes()+runner.StatusBytes(), sys.rawBytes
	agg.report(p.layer)
	if ctx.validate {
		p.layer["validate.host_ms_per_tree"] = ratio(validateMs, float64(len(roots)))
	}
	layers := sys.layerTotals().Sub(layers0)
	storageMetrics(p.layer, layers, newDeviceLog(sys.devs), sys.sf, sys.hb.LayerStats().Get("metrics", "reads"))
	p.digestf("layers %v", layers)
	return p, nil
}

func resTime(res *bfs.Result) int64 {
	if res == nil {
		return 0
	}
	return int64(res.Time)
}

// corrupted returns a copy of tree with one non-root tree vertex cut loose,
// which breaks Graph500 rule 5 (an edge joins visited and unvisited).
func corrupted(tree []int64, root int64) []int64 {
	out := append([]int64(nil), tree...)
	for v, par := range out {
		if par != -1 && int64(v) != root {
			out[v] = -1
			break
		}
	}
	return out
}

// bfsAgg accumulates the per-op bfs.* layer metrics.
type bfsAgg struct {
	ops                    int
	tdLevels, buLevels, sw int64
	exTD, exBU, exNVM      int64
	tdTime, time           int64
	degraded               int
}

func (a *bfsAgg) add(res *bfs.Result) {
	a.ops++
	for _, l := range res.Levels {
		if l.Direction == bfs.TopDown {
			a.tdLevels++
			a.tdTime += int64(l.Time)
		} else {
			a.buLevels++
		}
	}
	a.sw += int64(res.Switches)
	a.exTD += res.ExaminedTD
	a.exBU += res.ExaminedBU
	a.exNVM += res.ExaminedNVM
	a.time += int64(res.Time)
	if res.Resilience.DegradedLevels() > 0 {
		a.degraded++
	}
}

func (a *bfsAgg) report(out map[string]float64) {
	n := float64(a.ops)
	out["bfs.td_levels"] = ratio(float64(a.tdLevels), n)
	out["bfs.bu_levels"] = ratio(float64(a.buLevels), n)
	out["bfs.switches"] = ratio(float64(a.sw), n)
	out["bfs.examined_td"] = ratio(float64(a.exTD), n)
	out["bfs.examined_bu"] = ratio(float64(a.exBU), n)
	out["bfs.examined_nvm"] = ratio(float64(a.exNVM), n)
	out["bfs.td_sim_frac"] = ratio(float64(a.tdTime), float64(a.time))
	out["bfs.degraded_runs"] = float64(a.degraded)
}

// diagRoots is how many roots the untimed diagnostics run.
const diagRoots = 8

// diagSystem builds spec's system for a diagnostic pass and samples count
// search keys.
func diagSystem(ctx *runCtx, spec bfsSpec, count int) (*system, []int64, error) {
	scratch := newPass()
	list, err := genGraph(nil, scratch, spec.scale, ctx.graphSeed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := buildSystem(nil, scratch.steps, list, spec.scenario)
	if err != nil {
		return nil, nil, err
	}
	roots, err := sampleRoots(sys.list, count, ctx)
	if err != nil {
		sys.close()
		return nil, nil, err
	}
	return sys, roots, nil
}

// runRoots runs one BFS per root on a fresh runner and returns the host
// seconds and the per-root virtual times.
func runRoots(sys *system, cfg bfs.Config, roots []int64) (hostS float64, sim []int64, teps []float64, err error) {
	runner, err := bfs.NewRunner(sys.fwd, sys.bwd, sys.part, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, root := range roots {
		t0 := time.Now()
		res, err := runner.Run(root)
		hostS += time.Since(t0).Seconds()
		if err != nil {
			return 0, nil, nil, err
		}
		sim = append(sim, int64(res.Time))
		teps = append(teps, ratio(float64(traversedEdges(res.Tree, sys.deg)), res.Time.Seconds()))
	}
	return hostS, sim, teps, nil
}

// parSpeedup reports how much host time nproc real workers save over one
// on the DRAM graph. Parallel behaviour is a per-layer diagnostic only:
// the end-to-end metrics pin one real worker.
func parSpeedup(ctx *runCtx, out map[string]float64) error {
	spec := g500DRAMSpec.sized(ctx.small)
	sys, roots, err := diagSystem(ctx, spec, diagRoots)
	if err != nil {
		return err
	}
	defer sys.close()
	one, _, _, err := runRoots(sys, bfsConfig(spec.mode), roots)
	if err != nil {
		return err
	}
	cfg := bfsConfig(spec.mode)
	cfg.RealWorkers = runtime.NumCPU()
	many, _, _, err := runRoots(sys, cfg, roots)
	if err != nil {
		return err
	}
	out["bfs.par_speedup"] = ratio(one, many)
	return nil
}

// workersSkew is ROADMAP item 1's number: the largest relative spread of a
// root's virtual time over RealWorkers {1,2} x 3 repeats on the top-down
// SSD stack. It should be 0; device arbitration by real arrival order keeps
// it above 0 today.
func workersSkew(ctx *runCtx, out map[string]float64) error {
	spec := tdSSDSpec.sized(ctx.small)
	var runs [][]int64
	for _, workers := range []int{1, 2} {
		for rep := 0; rep < 3; rep++ {
			// A fresh system per repeat: every run starts from empty caches
			// and idle devices, so only scheduling can make them differ.
			sys, roots, err := diagSystem(ctx, spec, diagRoots)
			if err != nil {
				return err
			}
			cfg := bfsConfig(spec.mode)
			cfg.RealWorkers = workers
			_, sim, _, err := runRoots(sys, cfg, roots)
			sys.close()
			if err != nil {
				return err
			}
			runs = append(runs, sim)
		}
	}
	var skew float64
	for i := range runs[0] {
		lo, hi := runs[0][i], runs[0][i]
		for _, r := range runs {
			if r[i] < lo {
				lo = r[i]
			}
			if r[i] > hi {
				hi = r[i]
			}
		}
		if s := ratio(float64(hi-lo), float64(lo)); s > skew {
			skew = s
		}
	}
	out["vtime.workers_skew"] = skew
	return nil
}

// degradation reproduces the paper's headline: the TEPS lost by moving the
// forward graph to PCIe flash, against a DRAM-only pass over the same
// roots. A fidelity diagnostic, deliberately not end-to-end: a change that
// legitimately narrows the gap is not a regression.
func degradation(ctx *runCtx, out map[string]float64) error {
	var hmean [2]float64
	var dramGiB float64
	for i, spec := range []bfsSpec{g500DRAMSpec.sized(ctx.small), g500PCIeSpec.sized(ctx.small)} {
		sys, roots, err := diagSystem(ctx, spec, spec.roots)
		if err != nil {
			return err
		}
		_, _, teps, err := runRoots(sys, bfsConfig(spec.mode), roots)
		hmean[i] = harmonicMean(teps)
		dramGiB = float64(sys.dramBytes()) / float64(core.GiB)
		sys.close()
		if err != nil {
			return err
		}
	}
	out["core.degradation_pct"] = 100 * (1 - ratio(hmean[1], hmean[0]))
	rep, err := power.DefaultModel.Evaluate(hmean[1], power.Config{
		Sockets: topology.Nodes, DRAMGiB: dramGiB, NVMDevices: 1, NVMDutyCycle: 0.3,
	})
	if err != nil {
		return fmt.Errorf("power model: %w", err)
	}
	out["power.mteps_per_w"] = rep.MTEPSPerW
	return nil
}

package main

import (
	"fmt"
	"math"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/vp"
)

// prSpec is pr-tails' frozen shape: full PageRank runs (tolerance 1e-6) on
// PCIe with compression, a page cache, and only the first 8 neighbors of
// each backward-graph vertex in DRAM.
type prSpec struct {
	scale, runs int
	scenario    core.Scenario
}

// prCacheBytes is pr-tails' page-cache budget: 1/8 of the NVM bytes
// (compressed forward graph plus backward tails; 4,853,402 B at SCALE 15
// and the default seed, from -calibrate), in whole 4 KiB pages.
const prCacheBytes = 592 << 10

var prTailsSpec = prSpec{scale: 15, runs: 6, scenario: prScenario(prCacheBytes)}

func prScenario(cache int64) core.Scenario {
	sc := core.ScenarioPCIeFlash.WithIO(true, 0, 0).WithCache(cache, 0)
	sc.BackwardDRAMEdgeLimit = 8
	return sc
}

func (s prSpec) sized(small bool) prSpec {
	if small {
		s.scale, s.runs, s.scenario = 10, 2, prScenario(16<<10)
	}
	s.scenario = scaled(s.scenario, s.scale)
	return s
}

var prTails = &workload{
	name:        "pr-tails",
	seededGraph: true,
	why:         "PageRank (vp.Engine, tol 1e-6) on PCIe with compress, cache and BackwardDRAMEdgeLimit=8: pull-only dense sweeps dominated by semiext.HybridBackward NVM tails (paper Fig. 14); the only non-BFS program",
	opDesc:      "sim: one PageRank iteration (a dense pull sweep); host: one iteration (mean per run)",
	run:         func(ctx *runCtx) (*pass, error) { return runPR(ctx, prTailsSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		memstoreLoop(out)
		spec := prTailsSpec.sized(ctx.small)
		list, err := genGraph(nil, newPass(), spec.scale, ctx.graphSeed)
		if err != nil {
			return err
		}
		return codecLoops(edgelist.ListSource{List: list}, numa.NewPartition(topology, int(list.NumVertices)), out)
	},
}

// newPageRank binds a PageRank program to sys.
func newPageRank(sys *system) (*vp.PageRank, *vp.Engine, error) {
	prog := vp.NewPageRank(sys.deg, vp.PageRankOptions{Tol: 1e-6})
	eng, err := vp.NewEngine(sys.fwd, sys.bwd, sys.part, prog, vp.Config{Config: bfsConfig(bfs.ModeHybrid)})
	return prog, eng, err
}

func runPR(ctx *runCtx, spec prSpec) (*pass, error) {
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
	var prog *vp.PageRank
	var eng *vp.Engine
	err = timeStep(tr, p.steps, "engine.s", "vp", "NewEngine", func() error {
		var err error
		prog, eng, err = newPageRank(sys)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.end(nil)
	p.note("SCALE %d, %d PageRank runs, %s", spec.scale, spec.runs, describeScenario(spec.scenario))

	var want []float64
	if ctx.validate {
		if want, err = referenceRanks(list); err != nil {
			return nil, err
		}
	}
	layers0 := sys.layerTotals()
	var iters int
	var simTotal float64
	var pulled int64
	for run := 0; run < spec.runs; run++ {
		tr.setOp(run)
		tr.begin("harness", "op", nil)
		p.meter.start()
		tr.begin("vp", "Run", nil)
		res, err := eng.Run(0)
		var simNs int64
		n := 1
		if err == nil {
			simNs, n = int64(res.Time), res.Iterations
		}
		tr.endSim(simNs)
		p.meter.stopN(n)
		tr.end(nil)
		p.attempted += n
		if err != nil {
			p.failed += n - 1
			p.fail("run %d: %v", run, err)
			continue
		}
		for _, l := range res.Levels {
			p.sim = append(p.sim, simOp{simS: l.Time.Seconds(), edges: l.Examined(), tepsS: l.Time.Seconds()})
		}
		iters += res.Iterations
		simTotal += res.Time.Seconds()
		pulled += res.ExaminedPull
		p.examined += res.ExaminedPull + res.ExaminedPush
		ranks := prog.Ranks()
		p.digestf("run %d iters %d converged %v time %d pull %d nvm %d ranks %x",
			run, res.Iterations, res.Converged, res.Time, res.ExaminedPull, res.ExaminedNVM, hashRanks(ranks))
		if ctx.validate {
			if ctx.corruptTree && run == 0 {
				ranks = append([]float64(nil), ranks...)
				ranks[0] += 1e-9
			}
			if err := sameRanks(want, ranks); err != nil {
				p.failed += res.Iterations - 1
				p.fail("run %d: %v", run, err)
			}
		}
	}
	tr.setOp(-1)
	p.layer["vp.pr_iters"] = ratio(float64(iters), float64(spec.runs))
	p.layer["vp.pr_sim_s_per_run"] = ratio(simTotal, float64(spec.runs))
	p.layer["vp.pull_edges_per_iter"] = ratio(float64(pulled), float64(iters))
	p.dram, p.raw = sys.dramBytes()+eng.StatusBytes(), sys.rawBytes
	layers := sys.layerTotals().Sub(layers0)
	storageMetrics(p.layer, layers, newDeviceLog(sys.devs), sys.sf, sys.hb.LayerStats().Get("metrics", "reads"))
	p.digestf("layers %v", layers)
	return p, nil
}

// referenceRanks runs PageRank on an all-DRAM placement of the same graph:
// the storage stack must not change a single bit of the result.
func referenceRanks(list *edgelist.List) ([]float64, error) {
	sys, err := buildSystem(nil, stepTimes{}, list, core.ScenarioDRAMOnly)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	prog, eng, err := newPageRank(sys)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(0); err != nil {
		return nil, err
	}
	return append([]float64(nil), prog.Ranks()...), nil
}

func sameRanks(want, got []float64) error {
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			return fmt.Errorf("rank[%d] = %v, DRAM-only reference has %v", v, got[v], want[v])
		}
	}
	return nil
}

func hashRanks(ranks []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range ranks {
		h ^= math.Float64bits(r)
		h *= 1099511628211
	}
	return h
}

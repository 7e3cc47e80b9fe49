package main

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/serve"
	"semibfs/internal/validate"
)

// serveSpec is serve-pcie's frozen shape. The load is an OPEN loop on the
// virtual clock: seeded Poisson arrivals on a schedule that does not wait
// for replies, and every latency is timed from the scheduled arrival, so a
// stall is charged to the queries that queue behind it.
type serveSpec struct {
	scale, lanes, queries int
	// satQPS is the closed-loop saturation rate: the whole query stream
	// submitted at once over an unbounded queue, queries / makespan.
	// phaseAP50 is phase A's median latency. Both were measured once with
	// -calibrate at the default seed and are frozen here.
	satQPS, phaseAP50 float64
	queueCap          int
}

var servePCIeSpec = serveSpec{
	scale: 15, lanes: 64, queries: 1200,
	satQPS: 11300, phaseAP50: 0.0065,
	queueCap: 256,
}

var servePCIeSmall = serveSpec{
	scale: 10, lanes: 64, queries: 128,
	satQPS: 140000, phaseAP50: 0.00064,
	queueCap: 32,
}

func (s serveSpec) rateA() float64    { return 0.6 * s.satQPS }
func (s serveSpec) rateB() float64    { return 1.5 * s.satQPS }
func (s serveSpec) deadline() float64 { return 4 * s.phaseAP50 }

func (s serveSpec) sized(small bool) serveSpec {
	if small {
		return servePCIeSmall
	}
	return s
}

var servePCIe = &workload{
	name:   "serve-pcie",
	why:    "serve.Server over 64 MS-BFS lanes on PCIe, open loop: phase A 1,200 queries at 0.6x saturation (latency below the knee), phase B 1,200 at 1.5x with a bounded queue and deadline (goodput past it)",
	opDesc: "sim: one phase-A query, scheduled arrival to completion; host: one sweep (mean per phase)",
	run:    func(ctx *runCtx) (*pass, error) { return runServe(ctx, servePCIeSpec.sized(ctx.small)) },
	diagnose: func(ctx *runCtx, out map[string]float64) error {
		bitmapLoops(out)
		memstoreLoop(out)
		return nil
	},
}

// poisson returns n arrivals at the given rate starting at t0, roots
// drawn from roots[off:].
func poisson(r *rng, roots []int64, t0, rate float64) []serve.Arrival {
	trace := make([]serve.Arrival, len(roots))
	t := t0
	for i, root := range roots {
		t += r.exp() / rate
		trace[i] = serve.Arrival{Root: root, At: t}
	}
	return trace
}

// serveSetup builds the PCIe system and the 64-lane batch runner.
func serveSetup(ctx *runCtx, p *pass, spec serveSpec) (*system, *bfs.BatchRunner, []int64, error) {
	tr := ctx.tr
	tr.setOp(-1)
	tr.begin("harness", "setup", nil)
	defer tr.end(nil)
	list, err := genGraph(tr, p, spec.scale, ctx.graphSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := buildSystem(tr, p.steps, list, scaled(core.ScenarioPCIeFlash, spec.scale))
	if err != nil {
		return nil, nil, nil, err
	}
	var br *bfs.BatchRunner
	err = timeStep(tr, p.steps, "engine.s", "bfs", "NewBatchRunner", func() error {
		var err error
		br, err = bfs.NewBatchRunner(sys.fwd, sys.bwd, sys.part, spec.lanes, bfsConfig(bfs.ModeHybrid))
		return err
	})
	if err != nil {
		sys.close()
		return nil, nil, nil, err
	}
	roots, err := sampleRoots(sys.list, 2*spec.queries, ctx)
	if err != nil {
		sys.close()
		return nil, nil, nil, err
	}
	return sys, br, roots, nil
}

func runServe(ctx *runCtx, spec serveSpec) (*pass, error) {
	p := newPass()
	tr := ctx.tr
	sys, br, roots, err := serveSetup(ctx, p, spec)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	p.note("SCALE %d, %d lanes, open loop: phase A %d queries at %.0f qps (0.6x saturation), phase B %d at %.0f qps (1.5x), queue cap %d reject-newest, deadline %.3g s",
		spec.scale, spec.lanes, spec.queries, spec.rateA(), spec.queries, spec.rateB(), spec.queueCap, spec.deadline())
	r := newRNG(ctx.seed, 0x6172726976616c)
	layers0 := sys.layerTotals()

	// Each phase is one ServeTrace call; the sessions share the runner's
	// clocks, so phase B's schedule starts where phase A ended.
	phase := func(name string, op int, cfg serve.ServerConfig, qroots []int64, t0, rate float64) ([]serve.ServedQuery, serve.ServerStats, float64, error) {
		cfg.Lanes = spec.lanes
		srv := serve.NewServer(br, sys.hb.Degree, sys.list.NumVertices, cfg)
		trace := poisson(r, qroots, t0, rate)
		tr.setOp(op)
		tr.begin("harness", "op", nil)
		p.meter.start()
		tr.begin("serve", "ServeTrace."+name, nil)
		outs, err := srv.ServeTrace(trace)
		end := srv.Now()
		tr.endSim(int64((end - t0) * 1e9))
		st := srv.Stats()
		p.meter.stopN(int(st.Steps))
		tr.end(nil)
		return outs, st, end, err
	}

	outsA, stA, endA, err := phase("A", 0, serve.ServerConfig{}, roots[:spec.queries], 0, spec.rateA())
	if err != nil {
		return nil, fmt.Errorf("phase A: %w", err)
	}
	outsB, stB, endB, err := phase("B", 1, serve.ServerConfig{
		QueueCap: spec.queueCap, Policy: serve.RejectNewest, DefaultDeadline: spec.deadline(),
	}, roots[spec.queries:], endA, spec.rateB())
	if err != nil {
		return nil, fmt.Errorf("phase B: %w", err)
	}
	tr.setOp(-1)

	// Phase A: every query must be served; its latency is the op.
	var waits []float64
	byRoot := map[int64]serve.ServedQuery{}
	for _, o := range outsA {
		p.attempted++
		p.digestf("A id %d root %d %s fin %v visited %d", o.ID, o.Root, o.Outcome, o.Finished, o.Visited)
		if o.Outcome != serve.OutcomeServed {
			p.fail("phase A query %d root %d: %s", o.ID, o.Root, o.Outcome)
			continue
		}
		p.sim = append(p.sim, simOp{simS: o.Latency, edges: o.TraversedEdges, tepsS: o.Latency})
		p.examined += o.TraversedEdges
		waits = append(waits, o.Admitted-o.Arrival)
		byRoot[o.Root] = o
	}
	// Phase B: shedding and expiry are the policy working, not failures.
	var good int
	for _, o := range outsB {
		p.attempted++
		p.digestf("B id %d root %d %s fin %v visited %d", o.ID, o.Root, o.Outcome, o.Finished, o.Visited)
		switch o.Outcome {
		case serve.OutcomeServed:
			p.examined += o.TraversedEdges
			if o.Latency <= spec.deadline() {
				good++
			}
		case serve.OutcomeFailed, serve.OutcomeCancelled:
			p.fail("phase B query %d root %d: %s", o.ID, o.Root, o.Outcome)
		}
	}
	p.layer["sim_goodput_qps"] = ratio(float64(good), endB-endA)
	p.layer["serve.wait_p50_s"] = quantile(waits, 0.50)
	p.layer["serve.wait_p99_s"] = quantile(waits, 0.99)
	p.layer["serve.lane_occupancy"] = stB.Occupancy(spec.lanes)
	p.layer["serve.steps"] = float64(stA.Steps + stB.Steps)
	p.layer["serve.mean_queue_depth"] = stB.MeanQueueDepth()
	p.layer["serve.shed"] = float64(stB.Shed)
	p.layer["serve.expired"] = float64(stB.Expired)
	p.layer["serve.host_us_per_step"] = ratio(p.meter.totalSeconds()*1e6, float64(stA.Steps+stB.Steps))
	p.layer["bfs.degraded_runs"] = float64(stA.DegradedEvents + stB.DegradedEvents)
	p.dram, p.raw = sys.dramBytes()+br.StatusBytes(), sys.rawBytes
	layers := sys.layerTotals().Sub(layers0)
	storageMetrics(p.layer, layers, newDeviceLog(sys.devs), sys.sf, 0)
	p.digestf("layers %v", layers)

	if ctx.validate {
		if err := validateServed(ctx, p, sys, br, spec, append(outsA, outsB...), byRoot); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// validateServed checks every served query's visited count against its
// root's component size, and fully validates every 16th phase-A query: the
// root is served again by a tree-keeping server over the same runner, the
// tree passes validate.Run, and it must agree with the timed outcome on
// visited vertices and traversed edges.
func validateServed(ctx *runCtx, p *pass, sys *system, br *bfs.BatchRunner, spec serveSpec,
	outs []serve.ServedQuery, byRoot map[int64]serve.ServedQuery) error {
	comp := componentSizes(sys.list)
	var sample []int64
	for i, o := range outs {
		if o.Outcome != serve.OutcomeServed {
			continue
		}
		if want := comp[o.Root]; o.Visited != want {
			p.fail("query %d root %d visited %d vertices, component has %d", o.ID, o.Root, o.Visited, want)
		}
		if _, inA := byRoot[o.Root]; inA && i%16 == 0 {
			sample = append(sample, o.Root)
		}
	}
	srv := serve.NewServer(br, sys.hb.Degree, sys.list.NumVertices, serve.ServerConfig{Lanes: spec.lanes, KeepTrees: true})
	trace := make([]serve.Arrival, len(sample))
	for i, root := range sample {
		trace[i] = serve.Arrival{Root: root, At: srv.Now()}
	}
	kept, err := srv.ServeTrace(trace)
	if err != nil {
		return fmt.Errorf("validation server: %w", err)
	}
	for i, o := range kept {
		tree := o.Parents
		if ctx.corruptTree && i == 0 {
			tree = corrupted(tree, o.Root)
		}
		ctx.tr.begin("validate", "Run", nil)
		rep, err := validate.Run(tree, o.Root, sys.src)
		ctx.tr.end(nil)
		timed := byRoot[o.Root]
		switch {
		case err != nil:
			p.fail("query root %d: %v", o.Root, err)
		case rep.Visited != timed.Visited || rep.TraversedEdges != timed.TraversedEdges:
			p.fail("query root %d: validated tree has %d vertices / %d edges, timed query reported %d / %d",
				o.Root, rep.Visited, rep.TraversedEdges, timed.Visited, timed.TraversedEdges)
		}
	}
	p.note("validated %d of %d phase-A trees in full; all %d served queries matched their component size", len(kept), len(byRoot), len(outs))
	return nil
}

// calibrateServe measures the two numbers serveSpec freezes: the
// closed-loop saturation rate and phase A's median latency at 0.6x of it.
func calibrateServe(seed uint64, spec serveSpec) (satQPS, p50 float64, err error) {
	ctx := servePCIe.ctx(seed, false)
	sys, br, roots, err := serveSetup(ctx, newPass(), spec)
	if err != nil {
		return 0, 0, err
	}
	defer sys.close()
	burst := make([]serve.Arrival, spec.queries)
	for i := range burst {
		burst[i] = serve.Arrival{Root: roots[i]}
	}
	srv := serve.NewServer(br, sys.hb.Degree, sys.list.NumVertices, serve.ServerConfig{Lanes: spec.lanes})
	if _, err := srv.ServeTrace(burst); err != nil {
		return 0, 0, err
	}
	satQPS = float64(spec.queries) / srv.Now()

	spec.satQPS = satQPS
	sys2, br2, roots2, err := serveSetup(ctx, newPass(), spec)
	if err != nil {
		return 0, 0, err
	}
	defer sys2.close()
	srv = serve.NewServer(br2, sys2.hb.Degree, sys2.list.NumVertices, serve.ServerConfig{Lanes: spec.lanes})
	outs, err := srv.ServeTrace(poisson(newRNG(seed, 0x6172726976616c), roots2[:spec.queries], 0, spec.rateA()))
	if err != nil {
		return 0, 0, err
	}
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.Latency)
	}
	return satQPS, quantile(lat, 0.50), nil
}

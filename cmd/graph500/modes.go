package main

import (
	"errors"
	"fmt"
	"strings"

	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/serve"
	"semibfs/internal/stats"
	"semibfs/internal/validate"
	"semibfs/internal/vp"
	"semibfs/internal/vtime"
)

// The runners of the mode table: each runs its protocol to the end, then
// prints the report.

// build constructs the scenario's single-node system over the list.
func (c *cli) build() (*core.System, error) {
	return core.Build(c.src(), c.p.BFS.Topology, c.p.Scenario, core.BuildOptions{Dir: c.p.Dir})
}

// queryRoots samples the -queries (default -roots) stream of the batched
// and served modes.
func (c *cli) queryRoots(sys *core.System) ([]int64, error) {
	n := c.queries
	if n == 0 {
		n = c.p.Roots
	}
	return graph500.SampleRoots(c.list.NumVertices, n, c.p.Seed, sys.Backward.Degree)
}

// runClassic runs the per-root protocol on one node — the scenario's
// system, or the reference implementation's plain top-down baseline — and
// prints the extended or the official report.
func runClassic(c *cli) error {
	run := graph500.RunList
	if c.isRef {
		run = graph500.RunReference
	}
	res, err := run(c.list, c.p)
	if err != nil {
		return err
	}
	if c.official {
		return graph500.WriteReport(c.w, res)
	}
	p := res.Params
	c.header(p, len(res.PerRoot))
	c.bytes("graph DRAM bytes", res.DRAMBytes)
	c.bytes("graph NVM bytes", res.NVMBytes)
	c.bytes("BFS status bytes", res.StatusBytes)
	s := res.TEPS
	c.teps("min_TEPS", s.Min)
	c.teps("firstquartile_TEPS", s.FirstQuartile)
	c.teps("median_TEPS", s.Median)
	c.teps("thirdquartile_TEPS", s.ThirdQuartile)
	c.teps("max_TEPS", s.Max)
	c.teps("harmonic_mean_TEPS", s.HarmonicMean)
	if d := res.DeviceStats; d.Reads > 0 {
		c.kv("NVM reads", "%d (%s)", d.Reads, stats.FormatBytes(d.ReadBytes))
		c.kv("NVM avgqu-sz", "%.1f", d.AvgQueueSize)
		c.kv("NVM avgrq-sz", "%.1f sectors", d.AvgRequestSectors)
		c.kv("NVM await", "%v", (d.AvgWait + d.AvgService).ToTime())
	}
	l := res.Layers
	if cs := l.CacheView(); cs.CapacityBytes > 0 {
		c.kv("page cache", "%s (%d-byte blocks, readahead %d)",
			stats.FormatBytes(cs.CapacityBytes), cs.BlockBytes, p.Scenario.ReadaheadBlocks)
		c.cacheHits(cs, fmt.Sprintf(", %d evictions", cs.Evictions))
		if cs.Prefetches > 0 {
			c.kv("cache prefetches", "%d issued, %d hit", cs.Prefetches, cs.PrefetchHits)
		}
	}
	if p.Scenario.Compress && res.CompressionRatio > 0 {
		c.kv("NVM compression", "%.2fx (delta+varint adjacency)", res.CompressionRatio)
	}
	if a, ok := l.Layer("async"); ok {
		c.kv("async pipeline", "depth %d, %d demand runs (%d blocks), %d prefetch runs (%d blocks)",
			a.Get("queue_depth"), a.Get("demand_runs"), a.Get("demand_blocks"),
			a.Get("prefetch_runs"), a.Get("prefetch_blocks"))
	}
	if l.Get("retry", "read_errors") > 0 || res.DegradedRuns > 0 {
		c.readErrors(l, fmt.Sprintf(", backoff %v", vtime.Duration(l.Get("retry", "backoff_ns")).ToTime()))
		if res.DegradedRuns > 0 {
			c.kv("degraded runs", "%d (%d levels rescued)", res.DegradedRuns, res.DegradedLevels)
		}
		f := res.Faults
		c.kv("injected faults", "%d transient, %d corrupt, %d spikes over %d reads",
			f.Transient, f.Corrupted, f.Spikes, f.Reads)
	}
	if len(res.DeviceHealth) > 0 {
		c.kv("mirror failovers", "%d", l.Get("mirror", "failovers"))
		if scrubbed, repaired := l.Get("mirror", "scrubbed_blocks"), l.Get("mirror", "repaired_blocks"); scrubbed > 0 || repaired > 0 {
			c.kv("scrubber", "%d blocks verified, %d repaired (repair vtime %v)",
				scrubbed, repaired, vtime.Duration(l.Get("mirror", "repair_ns")).ToTime())
		}
		for i, d := range res.DeviceHealth {
			media := ""
			if i < len(res.PerDevice) {
				media = fmt.Sprintf(" (media: %d reads, %d writes)", res.PerDevice[i].Reads, res.PerDevice[i].Writes)
			}
			c.kv(fmt.Sprintf("device r%d", i), "%-8s %d reads, %d errors%s", d.State, d.Reads, d.Errors, media)
		}
	}
	if res.ConstructionTime > 0 {
		c.kv("construction vtime", "%v (edge list on NVM: %d reads, %d writes)",
			res.ConstructionTime.ToTime(), res.EdgeListDevice.Reads, res.EdgeListDevice.Writes)
	}
	c.wall()
	if p.KeepLevelStats && len(res.PerRoot) > 0 {
		c.levels("per-level stats of first root", res.PerRoot[0].Levels)
	}
	if c.showLayers {
		c.layers(l)
	}
	return nil
}

// runGrid runs the per-root protocol on a simulated RxC cluster whose
// machines each carry the scenario's per-node storage stack, and prints
// the distributed report plus the per-machine layer/health table.
func runGrid(c *cli) error {
	rows, cols, err := parseGrid(c.grid)
	if err != nil {
		return err
	}
	p, src := c.p, c.src()
	cfg := p.Scenario.WithGrid(rows, cols).ClusterConfig()
	cfg.Alpha, cfg.Beta = p.BFS.Alpha, p.BFS.Beta
	g, err := cluster.BuildGrid(src, cfg)
	if err != nil {
		return err
	}
	defer g.Close()
	roots, degree, err := graph500.ListRoots(c.list, p.Roots, p.Seed)
	if err != nil {
		return err
	}
	t, err := graph500.RunCluster(g.Run, roots, degree, p.ValidateRoots,
		func(root int64, res *cluster.Result) error {
			_, err := validate.Run(res.Tree, root, src)
			return err
		})
	if err != nil {
		return err
	}

	p.Scenario.Name += " (per machine)"
	c.header(p, len(roots), "grid", fmt.Sprintf("%dx%d machines, 2D adjacency blocking", rows, cols))
	c.kv("validated roots", "%d of %d", t.Validated, len(roots))
	s := stats.Summarize(t.TEPS)
	c.teps("median_TEPS", s.Median)
	c.teps("harmonic_mean_TEPS", s.HarmonicMean)
	c.kv("comm bytes", "%s over %d runs", stats.FormatBytes(t.Comm.Total()), len(roots))
	c.bytes("  td frontier", t.Comm.TDFrontier)
	c.bytes("  td candidates", t.Comm.TDCandidate)
	c.bytes("  bu allgather", t.Comm.BUAllgather)
	c.bytes("  bu ring", t.Comm.BURing)
	c.bytes("  control", t.Comm.Control)
	if t.Degraded > 0 {
		c.kv("degraded runs", "%d (a machine died unrescuably; traversal pinned to DRAM-resident state)", t.Degraded)
	}
	c.printf("\nper-machine report:\n")
	c.printf("machine  status  vtime         reads   read-bytes   replicas\n")
	for _, st := range g.MachineReport() {
		status := "ok"
		if st.Dead {
			status = "DEAD"
		}
		rep := "-"
		if len(st.Health) > 0 {
			var parts []string
			for _, h := range st.Health {
				parts = append(parts, fmt.Sprintf("%s:%s", h.Name, h.State))
			}
			rep = strings.Join(parts, " ")
		}
		c.printf("(%d,%d)    %-6s  %-12v %6d   %-10s   %s\n",
			st.Row, st.Col, status, st.Time.ToTime(), st.Device.Reads,
			stats.FormatBytes(st.Device.ReadBytes), rep)
	}
	c.printf("\n")
	c.wall()
	return nil
}

// runBatched serves a sampled query stream through the batched
// multi-source engine instead of the per-root protocol and prices every
// query at its amortized share of its batch's virtual time.
func runBatched(c *cli) error {
	sys, err := c.build()
	if err != nil {
		return err
	}
	defer sys.Close()
	roots, err := c.queryRoots(sys)
	if err != nil {
		return err
	}
	res, err := graph500.RunBatched(sys, c.src(), c.p.BFS, c.batch, roots, c.p.ValidateRoots)
	if err != nil {
		return err
	}

	c.header(c.p, -1)
	c.kv("batch width", "%d lanes", c.batch)
	c.kv("queries", "%d", res.Queries)
	c.bytes("BFS status bytes", res.StatusBytes)
	c.printf("\nbatch   size  levels  switches        vtime   amortized s/query\n")
	for i, b := range res.Batches {
		c.printf("%5d  %5d  %6d  %8d  %11v  %18.4g\n", i, b.Size, b.Levels, b.Switches, b.Time.ToTime(), b.Amortized())
	}
	c.printf("\n")
	c.kv("validated queries", "%d of %d", res.Validated, res.Queries)
	c.kv("total vtime", "%.6g s", res.Seconds)
	c.kv("amortized s/query", "%.6g", res.Seconds/float64(res.Queries))
	if res.HarmonicTEPS > 0 {
		c.kv("harmonic_mean_TEPS", "%s (amortized per query)", stats.FormatTEPS(res.HarmonicTEPS))
	}
	if res.Seconds > 0 {
		c.teps("aggregate_TEPS", res.AggregateTEPS())
	}
	if cs := res.Layers.CacheView(); cs.Hits+cs.Misses > 0 {
		c.cacheHits(cs, "")
	}
	if res.Layers.Get("retry", "read_errors") > 0 || res.DegradedLevels > 0 {
		c.readErrors(res.Layers, "")
		if res.DegradedLevels > 0 {
			c.kv("degraded batches", "%d (%d levels rescued)", res.DegradedBatches, res.DegradedLevels)
		}
	}
	c.wall()
	return nil
}

// runServed plays the sampled query stream as an open-loop arrival process
// at the target virtual QPS through the always-on serving loop: arrivals
// join the next sweep's free lanes while earlier queries are still in
// flight, a bounded queue (if -queue-cap is set) sheds the excess per the
// policy, and deadlines expire queries the server cannot reach in time.
// The report accounts every query to exactly one outcome and prints the
// completion-latency and queue-wait histograms of the served ones.
func runServed(c *cli) error {
	p, src := c.p, c.src()
	sys, err := c.build()
	if err != nil {
		return err
	}
	defer sys.Close()
	roots, err := c.queryRoots(sys)
	if err != nil {
		return err
	}
	trace := make([]serve.Arrival, len(roots))
	for i, root := range roots {
		trace[i] = serve.Arrival{Root: root, At: float64(i) / c.qps}
	}
	res, err := graph500.RunServed(sys, p.BFS, serve.ServerConfig{
		Lanes:           c.batch,
		QueueCap:        c.queueCap,
		Policy:          c.policy,
		DefaultDeadline: c.deadline,
		KeepTrees:       true,
	}, trace)
	if err != nil {
		return err
	}
	st, layers := res.Stats, res.Layers

	c.header(p, -1)
	c.kv("serving lanes", "%d", c.batch)
	c.kv("offered load", "%g queries/s (virtual), %d queries", c.qps, len(roots))
	if c.queueCap > 0 {
		c.kv("queue cap", "%d (%s)", c.queueCap, c.policy)
	} else {
		c.kv("queue cap", "unbounded")
	}
	if c.deadline > 0 {
		c.kv("deadline", "%gs", c.deadline)
	}
	c.bytes("BFS status bytes", res.StatusBytes)

	validated, degraded := 0, 0
	var traversed int64
	var makespan float64
	for _, o := range res.Outcomes {
		makespan = max(makespan, o.Finished)
		if o.Outcome != serve.OutcomeServed {
			continue
		}
		traversed += o.TraversedEdges
		if o.Degraded {
			degraded++
		}
		if p.ValidateRoots == 0 || validated < p.ValidateRoots {
			if _, err := validate.Run(o.Parents, o.Root, src); err != nil {
				return fmt.Errorf("query %d (root %d): %w", o.ID, o.Root, err)
			}
			validated++
		}
	}

	c.printf("\n")
	c.kv("served", "%d of %d", st.Served, st.Submitted)
	c.kv("shed", "%d", st.Shed)
	c.kv("expired", "%d", st.Expired)
	if st.Cancelled > 0 || st.Failed > 0 {
		c.kv("cancelled/failed", "%d / %d", st.Cancelled, st.Failed)
	}
	if st.Served > 0 {
		c.kv("latency p50/p95/p99", "%.4g / %.4g / %.4g s (mean %.4g)",
			st.Latency.P50()/1e9, st.Latency.P95()/1e9, st.Latency.P99()/1e9, st.Latency.Mean()/1e9)
		c.kv("queue wait p50/p99", "%.4g / %.4g s", st.Wait.P50()/1e9, st.Wait.P99()/1e9)
	}
	c.kv("queue depth", "max %d, mean %.2f", st.MaxQueueDepth, st.MeanQueueDepth())
	c.kv("lane occupancy", "%.1f%% over %d sweeps", 100*st.Occupancy(c.batch), st.Steps)
	if degraded > 0 {
		c.kv("degraded queries", "%d", degraded)
	}
	if layers.Get("retry", "read_errors") > 0 {
		c.readErrors(layers, "")
	}
	if cs := layers.CacheView(); cs.Hits+cs.Misses > 0 {
		c.cacheHits(cs, "")
	}
	c.kv("validated queries", "%d", validated)
	if makespan > 0 {
		c.kv("makespan vtime", "%.6g s", makespan)
		c.teps("aggregate_TEPS", float64(traversed)/makespan)
	}
	c.wall()
	return nil
}

// runAlgorithm runs a non-BFS vertex program (connected components or
// PageRank) once through the configured storage stack and prints a
// Graph500-style report: the program's convergence summary plus the usual
// cache and resilience lines. The iterative algorithms are
// root-independent, so there is no per-root protocol — one run is the
// measurement.
func runAlgorithm(c *cli) error {
	p := c.p
	sys, err := c.build()
	if err != nil {
		return err
	}
	defer sys.Close()
	var prog vp.Program
	var res *vp.Result
	err = graph500.RunProgram(sys, c.alg, vp.Config{Config: p.BFS},
		vp.PageRankOptions{Tol: c.prTol, MaxIters: c.prIters}, []int64{0},
		func(_ int64, pg vp.Program, r *vp.Result) error {
			prog, res = pg, r
			return nil
		})
	if err != nil {
		return err
	}

	c.header(p, -1, "algorithm", c.alg.String())
	c.kv("iterations", "%d (converged: %v, %d direction switches)", res.Iterations, res.Converged, res.Switches)
	c.kv("examined edges", "%d push, %d pull (%d from NVM)", res.ExaminedPush, res.ExaminedPull, res.ExaminedNVM)
	c.kv("vtime", "%v", res.Time.ToTime())
	if sec := res.Time.Seconds(); sec > 0 {
		c.teps("edges/s", float64(res.ExaminedPush+res.ExaminedPull)/sec)
	}
	c.kv("state bytes", "%s (packed snapshot)", stats.FormatBytes(vp.StateBytes(prog)))
	switch pg := prog.(type) {
	case *vp.Components:
		counts := map[int64]int64{}
		var largest int64
		for _, l := range pg.Labels() {
			counts[l]++
			largest = max(largest, counts[l])
		}
		c.kv("components", "%d (largest %d vertices)", len(counts), largest)
	case *vp.PageRank:
		o := pg.Options()
		var sum float64
		for _, r := range pg.Ranks() {
			sum += r
		}
		c.kv("pagerank", "damping %g, tol %g, max %d iters; rank sum %.9f", o.Damping, o.Tol, o.MaxIters, sum)
	}
	if cs := res.Layers.CacheView(); cs.Hits+cs.Misses > 0 {
		c.cacheHits(cs, "")
	}
	if res.Layers.Get("retry", "read_errors") > 0 {
		c.readErrors(res.Layers, "")
	}
	if f := res.Layers.Get("mirror", "failovers"); f > 0 {
		c.kv("mirror failovers", "%d", f)
	}
	c.wall()
	if c.showLevels {
		c.levels("per-level stats", res.Levels)
	}
	if c.showLayers {
		c.layers(res.Layers)
	}
	return nil
}

// runUpdates streams durable edge updates through the WAL-backed dynamic
// graph while the BFS iterations run: before each iteration one batch is
// logged, applied and the first root's parent tree repaired incrementally
// (graph500.TreeRepair). -crash-at injects a power cut mid WAL append or
// mid manifest flip; unlike the update sweep, which stops at the cut, the
// run recovers in place on the surviving media and keeps streaming. The
// report ends by checking the repaired tree against a fresh rebuild.
func runUpdates(c *cli) error {
	p := c.p
	total, rate := c.updates, c.updRate
	if rate <= 0 {
		rate = max(1, (total+p.Roots-1)/p.Roots)
	}
	nbatch := (total + rate - 1) / rate
	sc := p.Scenario
	cut, err := graph500.CrashFaults(c.crash, p.Seed|1, nbatch)
	if err != nil {
		return fmt.Errorf("-crash-at: %w", err)
	}
	if cut.Enabled() {
		if sc.Faults.Enabled() {
			return fmt.Errorf("-crash-at %s schedules its own fault; it does not combine with -fault-rate / -fault-after / -fault-corrupt", c.crash)
		}
		sc.Faults = cut
	}
	clock := vtime.NewClock(0)
	ds, err := core.BuildDynamic(c.src(), p.BFS.Topology, sc, clock)
	if err != nil {
		return err
	}
	defer ds.Close()
	degree := func(v int64) int64 { return ds.Graph.Backward().Degree(v) }
	roots, err := graph500.SampleRoots(c.list.NumVertices, p.Roots, p.Seed, degree)
	if err != nil {
		return err
	}
	runner, err := ds.NewRunner(p.BFS)
	if err != nil {
		return err
	}
	tr, err := graph500.NewTreeRepair(ds, clock, p.BFS, roots[0])
	if err != nil {
		return err
	}

	c.header(p, len(roots))
	c.kv("update stream", "%d updates in batches of %d, crash-at %s", total, rate, c.crash)
	c.printf("\niter  updates  repair-us  repair-edges        bfs-vtime        TEPS\n")
	us := dyn.NewUpdateStream(c.list, p.Seed|1)
	var teps []float64
	rec := recovery{cutBatch: -1}
	for i, remaining := 0, total; i < max(len(roots), nbatch); i++ {
		var applied int
		var repair vtime.Duration
		var scanned int64
		if remaining > 0 {
			size := min(rate, remaining)
			repair, scanned, err = tr.Step(us, size)
			switch {
			case err == nil:
				applied = size
				remaining -= size
			case c.crash == "wal" && errors.Is(err, nvm.ErrPowerCut):
				// The torn frame was dropped; reboot on the surviving
				// media and let the stream continue on the recovered boot.
				rec.cutBatch = tr.Batches
				if err := rec.run(tr, "WAL"); err != nil {
					return err
				}
				if runner, err = ds.NewRunner(p.BFS); err != nil {
					return err
				}
			default:
				return err
			}
		}
		if i < len(roots) {
			res, err := runner.Run(roots[i])
			if err != nil {
				return err
			}
			te, sec := float64(validate.TraversedEdges(res.Tree, degree)), res.Time.Seconds()
			if sec > 0 && te > 0 {
				teps = append(teps, te/sec)
			}
			c.printf("%4d  %7d  %9.1f  %12d  %15v  %10s\n",
				i, applied, repair.Micros(), scanned, res.Time.ToTime(), stats.FormatTEPS(te/sec))
		}
	}
	return c.finishUpdates(ds, tr, clock, rec, teps)
}

// recovery records an injected power cut and the reboot that followed.
type recovery struct {
	cutBatch int // batches durable before a WAL cut; -1 = no WAL cut fired
	us       float64
	replayed int64
	clock    *vtime.Clock
}

func (r *recovery) run(tr *graph500.TreeRepair, what string) (err error) {
	if r.clock, r.replayed, err = tr.Recover(); err != nil {
		return fmt.Errorf("recovery after %s cut: %w", what, err)
	}
	r.us = r.clock.Now().Micros()
	return nil
}

// finishUpdates closes the dynamic run: the compaction (clean, or torn and
// recovered, per -crash-at), the durability summary and the equivalence
// check of the repaired tree.
func (c *cli) finishUpdates(ds *core.DynamicSystem, tr *graph500.TreeRepair, clock *vtime.Clock, rec recovery, teps []float64) error {
	var compactUs float64
	switch c.crash {
	case "none":
		start := clock.Now()
		if err := ds.Graph.Compact(clock); err != nil {
			return err
		}
		compactUs = (clock.Now() - start).Micros()
	case "wal":
		if rec.cutBatch < 0 {
			return fmt.Errorf("the scheduled WAL power cut never fired")
		}
	case "compaction":
		if err := ds.Graph.Compact(clock); !errors.Is(err, nvm.ErrPowerCut) {
			return fmt.Errorf("compact: %v, want a power cut", err)
		}
		if err := rec.run(tr, "compaction"); err != nil {
			return err
		}
		// The recovered boot compacts cleanly: the interrupted flip left
		// only orphan shadow stores behind.
		start := rec.clock.Now()
		if err := ds.Graph.Compact(rec.clock); err != nil {
			return fmt.Errorf("post-recovery compaction: %w", err)
		}
		compactUs = (rec.clock.Now() - start).Micros()
	}

	dst := ds.Graph.Stats()
	c.printf("\n")
	c.kv("durable updates", "%d applied in %d batches", dst.Applied, tr.Batches)
	c.kv("WAL", "%d appends, %s", dst.WALAppends, stats.FormatBytes(dst.WALBytes))
	if dst.Applied > 0 {
		c.kv("update cost", "%.2f us/update (virtual)", tr.UpdateTime.Micros()/float64(dst.Applied))
	}
	if tr.Batches > 0 {
		repUs, rebuildUs := tr.RepairTime.Micros()/float64(tr.Batches), tr.Rebuild.Micros()
		vs := "free: scans stayed in DRAM"
		if repUs > 0 {
			vs = fmt.Sprintf("rebuild %.1f us, %.0fx", rebuildUs, rebuildUs/repUs)
		}
		c.kv("incremental repair", "%.1f us/batch, %.0f edges scanned/batch (%s)",
			repUs, float64(tr.RepairEdges)/float64(tr.Batches), vs)
	}
	if c.crash != "none" {
		where := "compaction manifest flip"
		if c.crash == "wal" {
			where = fmt.Sprintf("WAL append of batch %d (torn frame dropped)", rec.cutBatch+1)
		}
		c.kv("power cut", "%s", where)
		c.kv("recovery", "%.1f us virtual, %d updates replayed", rec.us, rec.replayed)
	}
	if compactUs > 0 {
		c.kv("compaction", "%.1f us virtual (generation %d)", compactUs, ds.Graph.Generation())
	}
	if len(teps) > 0 {
		s := stats.Summarize(teps)
		c.teps("median_TEPS", s.Median)
		c.teps("harmonic_mean_TEPS", s.HarmonicMean)
	}
	if err := tr.Verify(); err != nil {
		return err
	}
	c.kv("repair equivalence", "OK (%d batches repaired, tree bit-identical to fresh rebuild)", tr.Batches)
	c.wall()
	return nil
}

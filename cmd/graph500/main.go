// Command graph500 runs the full Graph500 benchmark protocol (generate,
// construct, 64 x BFS + validate) over one of the paper's three scenarios
// and prints a Graph500-style report.
//
// Examples:
//
//	graph500 -scale 20 -scenario dram
//	graph500 -scale 20 -scenario pcie -alpha 1e6 -beta-mult 1
//	graph500 -scale 19 -scenario ssd -roots 64 -dir /tmp/stores
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/serve"
	"semibfs/internal/stats"
	"semibfs/internal/validate"
	"semibfs/internal/vp"
	"semibfs/internal/vtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges injected, so tests can drive the CLI.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("graph500", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale      = fs.Int("scale", 18, "log2 of the number of vertices")
		edgeFactor = fs.Int("edgefactor", 16, "edges per vertex")
		seed       = fs.Uint64("seed", 12345, "graph generator seed")
		roots      = fs.Int("roots", 64, "number of BFS iterations")
		validate   = fs.Int("validate", 4, "fully validate this many roots (0 = all)")
		scenario   = fs.String("scenario", "dram", "dram | pcie | ssd")
		alpha      = fs.Float64("alpha", 1e4, "top-down -> bottom-up switch threshold")
		betaMult   = fs.Float64("beta-mult", 10, "beta = beta-mult * alpha")
		mode       = fs.String("mode", "hybrid", "hybrid | topdown | bottomup | reference")
		algo       = fs.String("algo", "bfs", "vertex program: bfs (Graph500 protocol) | cc (connected components) | pagerank")
		prTol      = fs.Float64("pr-tol", 0, "PageRank L1 convergence tolerance (0 = 1e-6; requires -algo pagerank)")
		prIters    = fs.Int("pr-iters", 0, "PageRank iteration cap (0 = 100; requires -algo pagerank)")
		dir        = fs.String("dir", "", "directory for NVM store files (empty = in-memory)")
		bwLimit    = fs.Int("backward-limit", 0, "DRAM edges per vertex for the backward graph (0 = all)")
		levels     = fs.Bool("levels", false, "print per-level statistics of the first root")
		latScale   = fs.String("latency-scale", "1", "device latency scale factor, or 'auto' for the SCALE-27 equivalence factor")
		aggIO      = fs.Bool("aggregate-io", false, "raise forward-graph requests from 4 KiB to 128 KiB (libaio-style aggregation ablation)")
		idxDRAM    = fs.Bool("index-in-dram", false, "keep the forward graph's index arrays in DRAM (ablation; the paper stores them on NVM)")
		elNVM      = fs.Bool("edgelist-nvm", false, "offload the edge list to its own NVM store and stream construction/validation from it (the paper's Step 1/2 data path)")
		edgesFile  = fs.String("edges", "", "load the edge list from a file written by cmd/gen instead of generating")
		official   = fs.Bool("official", false, "print the official Graph500 output format instead of the extended report")
		faultRate  = fs.Float64("fault-rate", 0, "inject transient read errors at this rate on every NVM store")
		faultAfter = fs.Int64("fault-after", 0, "kill each NVM store permanently after this many reads (0 = never)")
		faultSeed  = fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		corrupt    = fs.Float64("fault-corrupt", 0, "bit-flip corruption rate on NVM reads (enables CRC32 checksums)")
		faultRep   = fs.Int("fault-replica", 0, "restrict -fault-after to one replica: 1 kills replica 0, ... (0 = all stores)")
		replicas   = fs.Int("replicas", 1, "mirror the forward graph across this many simulated devices")
		scrubRate  = fs.Float64("scrub-rate", 0, "background scrub pace in blocks per virtual second (0 = off; requires -replicas > 1)")
		cacheSize  = fs.String("cache-bytes", "", "DRAM page-cache budget for the forward graph, e.g. 64M or 1G (empty = no cache)")
		readahead  = fs.Int("readahead", 0, "value-store readahead depth in cache blocks (requires -cache-bytes)")
		compress   = fs.Bool("compress", false, "store NVM adjacency delta+varint compressed (trades device bytes for host decode time)")
		queueDepth = fs.Int("queue-depth", 0, "async I/O pipeline slots above each NVM store's cache (0 = synchronous; requires -cache-bytes)")
		prefetch   = fs.Int("prefetch", 0, "frontier vertices announced for readahead per top-down chunk (0 = off; requires -cache-bytes)")
		layers     = fs.Bool("layers", false, "print the per-layer storage-stack counter report")
		batch      = fs.Int("batch", 0, "batched multi-source mode: BFS lanes per batch, 1-64 (0 = classic per-root protocol)")
		queries    = fs.Int("queries", 0, "query-stream length in batched mode (0 = -roots; requires -batch)")
		qps        = fs.Float64("qps", 0, "serving mode: open-loop query arrivals at this rate on the virtual clock (requires -batch)")
		deadline   = fs.Float64("deadline", 0, "serving mode: per-query virtual deadline in seconds (0 = none)")
		queueCap   = fs.Int("queue-cap", 0, "serving mode: submission-queue bound; full queues shed per -shed-policy (0 = unbounded)")
		shedPolicy = fs.String("shed-policy", "reject-newest", "serving mode: reject-newest | reject-oldest | reject-lowest-priority")
		grid       = fs.String("grid", "", "simulate an RxC cluster (e.g. 4x4): the adjacency is 2D-blocked and every machine carries the scenario's per-node storage stack")
		updates    = fs.Int("updates", 0, "dynamic mode: stream this many durable graph updates through the WAL, interleaved with the BFS iterations (requires pcie or ssd)")
		updRate    = fs.Int("update-rate", 0, "dynamic mode: updates per batch; one batch is logged, applied, and repaired before each BFS iteration (0 = updates/roots)")
		crashAt    = fs.String("crash-at", "none", "dynamic mode: inject a power cut during 'wal' (mid log append) or 'compaction' (mid manifest flip), then recover (none = crash-free)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	sc, err := scenarioByName(*scenario)
	if err != nil {
		return fail(stderr, err)
	}
	if *bwLimit > 0 {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-backward-limit requires an NVM scenario (pcie or ssd)"))
		}
		sc.BackwardDRAMEdgeLimit = *bwLimit
	}
	switch *latScale {
	case "", "1":
	case "auto":
		sc.LatencyScale = nvm.ScaleEquivalenceFactor(*scale, 27)
	default:
		f, err := strconv.ParseFloat(*latScale, 64)
		if err != nil {
			return fail(stderr, fmt.Errorf("bad -latency-scale %q: %v", *latScale, err))
		}
		sc.LatencyScale = f
	}
	if *aggIO || *idxDRAM {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-aggregate-io / -index-in-dram require an NVM scenario"))
		}
		sc.AggregateIO = *aggIO
		sc.IndexInDRAM = *idxDRAM
	}
	if *faultRate < 0 || *faultRate > 1 || *corrupt < 0 || *corrupt > 1 {
		return fail(stderr, fmt.Errorf("-fault-rate / -fault-corrupt must be in [0, 1]"))
	}
	if *faultAfter < 0 {
		return fail(stderr, fmt.Errorf("-fault-after must be >= 0"))
	}
	if *faultRate > 0 || *faultAfter > 0 || *corrupt > 0 {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-fault-rate / -fault-after / -fault-corrupt require an NVM scenario"))
		}
		sc.Faults = faults.Config{
			Seed:          *faultSeed,
			TransientRate: *faultRate,
			DieAfterReads: *faultAfter,
			CorruptRate:   *corrupt,
			DieReplica:    *faultRep,
		}
		// Corruption without checksums is silent; always pair them.
		sc.Checksums = *corrupt > 0
	}
	if *replicas < 1 {
		return fail(stderr, fmt.Errorf("-replicas must be >= 1"))
	}
	if *replicas > 1 || *scrubRate > 0 {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-replicas / -scrub-rate require an NVM scenario (pcie or ssd)"))
		}
		if *scrubRate < 0 {
			return fail(stderr, fmt.Errorf("-scrub-rate must be >= 0"))
		}
		if *scrubRate > 0 && *replicas == 1 {
			return fail(stderr, fmt.Errorf("-scrub-rate requires -replicas > 1 (a lone device has no mirror to repair from)"))
		}
		sc = sc.WithReplicas(*replicas, *scrubRate)
	}
	if *faultRep < 0 || *faultRep > *replicas {
		return fail(stderr, fmt.Errorf("-fault-replica must be in [0, %d]", *replicas))
	}
	if *cacheSize != "" {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-cache-bytes requires an NVM scenario (pcie or ssd)"))
		}
		budget, err := parseBytes(*cacheSize)
		if err != nil {
			return fail(stderr, fmt.Errorf("bad -cache-bytes %q: %v", *cacheSize, err))
		}
		sc.CacheBytes = budget
	}
	if *readahead < 0 {
		return fail(stderr, fmt.Errorf("-readahead must be >= 0"))
	}
	if *readahead > 0 {
		if sc.CacheBytes <= 0 {
			return fail(stderr, fmt.Errorf("-readahead requires -cache-bytes"))
		}
		sc.ReadaheadBlocks = *readahead
	}
	if *queueDepth < 0 || *prefetch < 0 {
		return fail(stderr, fmt.Errorf("-queue-depth / -prefetch must be >= 0"))
	}
	if *compress || *queueDepth > 0 || *prefetch > 0 {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-compress / -queue-depth / -prefetch require an NVM scenario"))
		}
		if (*queueDepth > 0 || *prefetch > 0) && sc.CacheBytes <= 0 {
			return fail(stderr, fmt.Errorf("-queue-depth / -prefetch require -cache-bytes (the pipeline fills cache pages)"))
		}
		sc = sc.WithIO(*compress, *queueDepth, *prefetch)
	}
	bfsMode, isRef, err := modeByName(*mode)
	if err != nil {
		return fail(stderr, err)
	}
	alg, err := core.ParseAlgorithm(*algo)
	if err != nil {
		return fail(stderr, err)
	}
	if (*prTol != 0 || *prIters != 0) && alg != core.AlgoPageRank {
		return fail(stderr, fmt.Errorf("-pr-tol / -pr-iters require -algo pagerank"))
	}
	if *prTol < 0 || *prIters < 0 {
		return fail(stderr, fmt.Errorf("-pr-tol / -pr-iters must be >= 0"))
	}
	sc = sc.WithAlgorithm(alg)

	p := graph500.Params{
		Scale:          *scale,
		EdgeFactor:     *edgeFactor,
		Seed:           *seed,
		Roots:          *roots,
		ValidateRoots:  *validate,
		Scenario:       sc,
		Dir:            *dir,
		SeriesBinWidth: 10 * vtime.Millisecond,
		KeepLevelStats: *levels,
		EdgeListOnNVM:  *elNVM,
		BFS: bfs.Config{
			Alpha: *alpha,
			Beta:  *betaMult * *alpha,
			Mode:  bfsMode,
		},
	}

	if *queries != 0 && *batch == 0 {
		return fail(stderr, fmt.Errorf("-queries requires -batch"))
	}
	if (*qps != 0 || *deadline != 0 || *queueCap != 0) && *batch == 0 {
		return fail(stderr, fmt.Errorf("-qps / -deadline / -queue-cap require -batch"))
	}
	if *qps < 0 || *deadline < 0 || *queueCap < 0 {
		return fail(stderr, fmt.Errorf("-qps / -deadline / -queue-cap must be >= 0"))
	}
	policy, err := serve.ParsePolicy(*shedPolicy)
	if err != nil {
		return fail(stderr, err)
	}
	crash := strings.ToLower(*crashAt)
	if crash == "" {
		crash = "none"
	}
	if (*updRate != 0 || crash != "none") && *updates == 0 {
		return fail(stderr, fmt.Errorf("-update-rate / -crash-at require -updates"))
	}
	if *updates < 0 || *updRate < 0 {
		return fail(stderr, fmt.Errorf("-updates / -update-rate must be >= 0"))
	}
	if *grid != "" {
		if *batch > 0 || *updates > 0 || isRef || *official || alg != core.AlgoBFS {
			return fail(stderr, fmt.Errorf("-grid runs the distributed BFS protocol; it does not combine with -batch, -updates, -official, -algo, or the reference mode"))
		}
		gr, gc, err := parseGrid(*grid)
		if err != nil {
			return fail(stderr, err)
		}
		var list *edgelist.List
		if *edgesFile != "" {
			list, err = edgelist.LoadFile(*edgesFile)
		} else {
			list, err = generator.Generate(generator.Config{
				Scale: *scale, EdgeFactor: *edgeFactor, Seed: *seed,
			})
		}
		if err != nil {
			return fail(stderr, err)
		}
		if err := runGrid(w, list, p, gr, gc); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	if alg != core.AlgoBFS {
		if *batch > 0 || *updates > 0 || isRef || *official {
			return fail(stderr, fmt.Errorf("-algo %s runs the vertex-program path; it does not combine with -batch, -updates, -official, or the reference mode", alg))
		}
		var list *edgelist.List
		if *edgesFile != "" {
			list, err = edgelist.LoadFile(*edgesFile)
		} else {
			list, err = generator.Generate(generator.Config{
				Scale: *scale, EdgeFactor: *edgeFactor, Seed: *seed,
			})
		}
		if err != nil {
			return fail(stderr, err)
		}
		prOpts := vp.PageRankOptions{Tol: *prTol, MaxIters: *prIters}
		if err := runAlgorithm(w, list, p, prOpts, *levels, *layers); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	if *updates > 0 {
		if !sc.HasNVM() {
			return fail(stderr, fmt.Errorf("-updates requires an NVM scenario (pcie or ssd): durability lives on the device stores"))
		}
		if *batch > 0 || isRef {
			return fail(stderr, fmt.Errorf("-updates does not combine with -batch or the reference mode"))
		}
		if *official {
			return fail(stderr, fmt.Errorf("-updates prints the extended dynamic report, not the official format"))
		}
		if *dir != "" {
			return fail(stderr, fmt.Errorf("-updates keeps its stores on simulated reopenable media; -dir is not supported"))
		}
		var list *edgelist.List
		if *edgesFile != "" {
			list, err = edgelist.LoadFile(*edgesFile)
		} else {
			list, err = generator.Generate(generator.Config{
				Scale: *scale, EdgeFactor: *edgeFactor, Seed: *seed,
			})
		}
		if err != nil {
			return fail(stderr, err)
		}
		if err := runDynamic(w, list, p, *updates, *updRate, crash); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	if *batch > 0 {
		if isRef {
			return fail(stderr, fmt.Errorf("-batch does not apply to the reference mode"))
		}
		var list *edgelist.List
		if *edgesFile != "" {
			list, err = edgelist.LoadFile(*edgesFile)
		} else {
			list, err = generator.Generate(generator.Config{
				Scale: *scale, EdgeFactor: *edgeFactor, Seed: *seed,
			})
		}
		if err != nil {
			return fail(stderr, err)
		}
		nq := *queries
		if nq == 0 {
			nq = *roots
		}
		if *qps > 0 {
			scfg := serve.ServerConfig{
				Lanes:           *batch,
				QueueCap:        *queueCap,
				Policy:          policy,
				DefaultDeadline: *deadline,
				KeepTrees:       true,
			}
			err = runServed(w, list, p, nq, *qps, scfg)
		} else {
			err = runBatched(w, list, p, *batch, nq)
		}
		if err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	start := time.Now()
	var res *graph500.Result
	switch {
	case isRef:
		res, err = graph500.RunReference(p)
	case *edgesFile != "":
		list, lerr := edgelist.LoadFile(*edgesFile)
		if lerr != nil {
			return fail(stderr, lerr)
		}
		res, err = graph500.RunList(list, p)
	default:
		res, err = graph500.Run(p)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if *official {
		if err := graph500.WriteReport(w, res); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	printReport(w, res, time.Since(start))
	if *layers {
		printLayers(w, res.Layers)
	}
	return 0
}

// printLayers renders the generic per-layer storage-stack counters
// aggregated over all BFS iterations, outermost layer first. Gauges
// (capacities, block sizes, limits) are marked to distinguish them from
// accumulated activity.
func printLayers(w io.Writer, s nvm.StackStats) {
	fmt.Fprintln(w, "\nstorage stack layers (outermost first):")
	if len(s) == 0 {
		fmt.Fprintln(w, "  (no NVM storage stacks; graphs are DRAM-resident)")
		return
	}
	for _, l := range s {
		fmt.Fprintf(w, "  %s:\n", l.Kind)
		for _, c := range l.Counters {
			mark := ""
			if c.Gauge {
				mark = "  (gauge)"
			}
			fmt.Fprintf(w, "    %-20s %12d%s\n", c.Name, c.Value, mark)
		}
	}
}

// parseGrid parses an "RxC" shape like "4x4" or "1x8".
func parseGrid(s string) (rows, cols int, err error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -grid %q (want RxC, e.g. 4x4)", s)
	}
	rows, err = strconv.Atoi(parts[0])
	if err == nil {
		cols, err = strconv.Atoi(parts[1])
	}
	if err != nil || rows < 1 || cols < 1 {
		return 0, 0, fmt.Errorf("bad -grid %q (want RxC with positive factors)", s)
	}
	return rows, cols, nil
}

// runGrid runs the per-root protocol on a simulated RxC cluster whose
// machines each carry the scenario's per-node storage stack, and prints
// the distributed report plus the per-machine layer/health table.
func runGrid(w io.Writer, list *edgelist.List, p graph500.Params, rows, cols int) error {
	p = p.WithDefaults()
	start := time.Now()
	src := edgelist.ListSource{List: list}
	cfg := p.Scenario.WithGrid(rows, cols).ClusterConfig()
	cfg.Alpha, cfg.Beta = p.BFS.Alpha, p.BFS.Beta
	g, err := cluster.BuildGrid(src, cfg)
	if err != nil {
		return err
	}
	defer g.Close()

	degree := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			degree[e.U]++
			degree[e.V]++
		}
	}
	roots, err := graph500.SampleRoots(list.NumVertices, p.Roots, p.Seed,
		func(v int64) int64 { return degree[v] })
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "NBFS:                 %d\n", len(roots))
	fmt.Fprintf(w, "scenario:             %s (per machine)\n", p.Scenario.Name)
	fmt.Fprintf(w, "grid:                 %dx%d machines, 2D adjacency blocking\n", rows, cols)
	fmt.Fprintf(w, "mode:                 hybrid  alpha=%g beta=%g\n", cfg.Alpha, cfg.Beta)

	var teps []float64
	var comm cluster.CommStats
	validated, degradedRuns := 0, 0
	for _, root := range roots {
		res, err := g.Run(root)
		if err != nil {
			return fmt.Errorf("root %d: %w", root, err)
		}
		var sum int64
		for v, par := range res.Tree {
			if par != -1 {
				sum += degree[v]
			}
		}
		te := float64(sum / 2)
		if sec := res.Time.Seconds(); sec > 0 && te > 0 {
			teps = append(teps, te/sec)
		}
		comm.TDFrontier += res.Comm.TDFrontier
		comm.TDCandidate += res.Comm.TDCandidate
		comm.BUAllgather += res.Comm.BUAllgather
		comm.BURing += res.Comm.BURing
		comm.Control += res.Comm.Control
		if res.Degraded {
			degradedRuns++
		}
		if p.ValidateRoots == 0 || validated < p.ValidateRoots {
			if _, err := validate.Run(res.Tree, root, src); err != nil {
				return fmt.Errorf("root %d: %w", root, err)
			}
			validated++
		}
	}
	s := stats.Summarize(teps)
	fmt.Fprintf(w, "validated roots:      %d of %d\n", validated, len(roots))
	fmt.Fprintf(w, "median_TEPS:          %s\n", stats.FormatTEPS(s.Median))
	fmt.Fprintf(w, "harmonic_mean_TEPS:   %s\n", stats.FormatTEPS(s.HarmonicMean))
	fmt.Fprintf(w, "comm bytes:           %s over %d runs\n", stats.FormatBytes(comm.Total()), len(roots))
	fmt.Fprintf(w, "  td frontier:        %s\n", stats.FormatBytes(comm.TDFrontier))
	fmt.Fprintf(w, "  td candidates:      %s\n", stats.FormatBytes(comm.TDCandidate))
	fmt.Fprintf(w, "  bu allgather:       %s\n", stats.FormatBytes(comm.BUAllgather))
	fmt.Fprintf(w, "  bu ring:            %s\n", stats.FormatBytes(comm.BURing))
	fmt.Fprintf(w, "  control:            %s\n", stats.FormatBytes(comm.Control))
	if degradedRuns > 0 {
		fmt.Fprintf(w, "degraded runs:        %d (a machine died unrescuably; traversal pinned to DRAM-resident state)\n", degradedRuns)
	}

	fmt.Fprintln(w, "\nper-machine report:")
	fmt.Fprintln(w, "machine  status  vtime         reads   read-bytes   replicas")
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
		fmt.Fprintf(w, "(%d,%d)    %-6s  %-12v %6d   %-10s   %s\n",
			st.Row, st.Col, status, st.Time.ToTime(), st.Device.Reads,
			stats.FormatBytes(st.Device.ReadBytes), rep)
	}
	fmt.Fprintf(w, "\nwall time:            %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func scenarioByName(name string) (core.Scenario, error) {
	switch strings.ToLower(name) {
	case "dram", "dram-only":
		return core.ScenarioDRAMOnly, nil
	case "pcie", "pcieflash", "iodrive2":
		return core.ScenarioPCIeFlash, nil
	case "ssd", "ssd320":
		return core.ScenarioSSD, nil
	default:
		return core.Scenario{}, fmt.Errorf("unknown scenario %q (want dram, pcie, or ssd)", name)
	}
}

// parseBytes parses a byte count with an optional K/M/G/T suffix
// (binary multiples, case-insensitive, optional trailing B or iB).
func parseBytes(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	mult := int64(1)
	if n := len(t); n > 0 {
		switch t[n-1] {
		case 'K':
			mult, t = 1<<10, t[:n-1]
		case 'M':
			mult, t = 1<<20, t[:n-1]
		case 'G':
			mult, t = 1<<30, t[:n-1]
		case 'T':
			mult, t = 1<<40, t[:n-1]
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("must be positive")
	}
	return int64(v * float64(mult)), nil
}

func modeByName(name string) (bfs.Mode, bool, error) {
	switch strings.ToLower(name) {
	case "hybrid":
		return bfs.ModeHybrid, false, nil
	case "topdown", "top-down":
		return bfs.ModeTopDownOnly, false, nil
	case "bottomup", "bottom-up":
		return bfs.ModeBottomUpOnly, false, nil
	case "reference", "ref":
		return bfs.ModeHybrid, true, nil
	default:
		return 0, false, fmt.Errorf("unknown mode %q", name)
	}
}

func printReport(w io.Writer, res *graph500.Result, wall time.Duration) {
	p := res.Params
	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "NBFS:                 %d\n", len(res.PerRoot))
	fmt.Fprintf(w, "scenario:             %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "mode:                 %s  alpha=%g beta=%g\n", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
	fmt.Fprintf(w, "graph DRAM bytes:     %s\n", stats.FormatBytes(res.DRAMBytes))
	fmt.Fprintf(w, "graph NVM bytes:      %s\n", stats.FormatBytes(res.NVMBytes))
	fmt.Fprintf(w, "BFS status bytes:     %s\n", stats.FormatBytes(res.StatusBytes))
	s := res.TEPS
	fmt.Fprintf(w, "min_TEPS:             %s\n", stats.FormatTEPS(s.Min))
	fmt.Fprintf(w, "firstquartile_TEPS:   %s\n", stats.FormatTEPS(s.FirstQuartile))
	fmt.Fprintf(w, "median_TEPS:          %s\n", stats.FormatTEPS(s.Median))
	fmt.Fprintf(w, "thirdquartile_TEPS:   %s\n", stats.FormatTEPS(s.ThirdQuartile))
	fmt.Fprintf(w, "max_TEPS:             %s\n", stats.FormatTEPS(s.Max))
	fmt.Fprintf(w, "harmonic_mean_TEPS:   %s\n", stats.FormatTEPS(s.HarmonicMean))
	if res.DeviceStats.Reads > 0 {
		d := res.DeviceStats
		fmt.Fprintf(w, "NVM reads:            %d (%s)\n", d.Reads, stats.FormatBytes(d.ReadBytes))
		fmt.Fprintf(w, "NVM avgqu-sz:         %.1f\n", d.AvgQueueSize)
		fmt.Fprintf(w, "NVM avgrq-sz:         %.1f sectors\n", d.AvgRequestSectors)
		fmt.Fprintf(w, "NVM await:            %v\n", (d.AvgWait + d.AvgService).ToTime())
	}
	if c := res.CacheStats; c.CapacityBytes > 0 {
		fmt.Fprintf(w, "page cache:           %s (%d-byte blocks, readahead %d)\n",
			stats.FormatBytes(c.CapacityBytes), c.BlockBytes, p.Scenario.ReadaheadBlocks)
		fmt.Fprintf(w, "cache hits:           %d of %d lookups (%.1f%%), %d evictions\n",
			c.Hits, c.Hits+c.Misses, 100*c.HitRate(), c.Evictions)
		if c.Prefetches > 0 {
			fmt.Fprintf(w, "cache prefetches:     %d issued, %d hit\n", c.Prefetches, c.PrefetchHits)
		}
	}
	if p.Scenario.Compress && res.CompressionRatio > 0 {
		fmt.Fprintf(w, "NVM compression:      %.2fx (delta+varint adjacency)\n", res.CompressionRatio)
		if res.DecodedCacheHits > 0 {
			fmt.Fprintf(w, "decoded-hub cache:    %d hits\n", res.DecodedCacheHits)
		}
	}
	if a, ok := res.Layers.Layer("async"); ok {
		fmt.Fprintf(w, "async pipeline:       depth %d, %d demand runs (%d blocks), %d prefetch runs (%d blocks)\n",
			a.Get("queue_depth"), a.Get("demand_runs"), a.Get("demand_blocks"),
			a.Get("prefetch_runs"), a.Get("prefetch_blocks"))
	}
	if r := res.Resilience; r.Retries > 0 || r.ReadErrors > 0 || r.DegradedRuns > 0 {
		fmt.Fprintf(w, "NVM read errors:      %d (%d retried, backoff %v)\n",
			r.ReadErrors, r.Retries, r.BackoffTime.ToTime())
		if r.DegradedRuns > 0 {
			fmt.Fprintf(w, "degraded runs:        %d (%d levels rescued)\n",
				r.DegradedRuns, r.DegradedLevels)
		}
		f := res.Faults
		fmt.Fprintf(w, "injected faults:      %d transient, %d corrupt, %d spikes over %d reads\n",
			f.Transient, f.Corrupted, f.Spikes, f.Reads)
	}
	if r := res.Resilience; len(res.DeviceHealth) > 0 {
		fmt.Fprintf(w, "mirror failovers:     %d\n", r.Failovers)
		if r.ScrubbedBlocks > 0 || r.RepairedBlocks > 0 {
			fmt.Fprintf(w, "scrubber:             %d blocks verified, %d repaired (repair vtime %v)\n",
				r.ScrubbedBlocks, r.RepairedBlocks, r.RepairTime.ToTime())
		}
		for i, d := range res.DeviceHealth {
			fmt.Fprintf(w, "device r%d:            %-8s %d reads, %d errors", i, d.State, d.Reads, d.Errors)
			if i < len(res.PerDevice) {
				fmt.Fprintf(w, " (media: %d reads, %d writes)", res.PerDevice[i].Reads, res.PerDevice[i].Writes)
			}
			fmt.Fprintln(w, )
		}
	}
	if res.ConstructionTime > 0 {
		fmt.Fprintf(w, "construction vtime:   %v (edge list on NVM: %d reads, %d writes)\n",
			res.ConstructionTime.ToTime(),
			res.EdgeListDevice.Reads, res.EdgeListDevice.Writes)
	}
	fmt.Fprintf(w, "wall time:            %v\n", wall.Round(time.Millisecond))
	if p.KeepLevelStats && len(res.PerRoot) > 0 {
		fmt.Fprintln(w, "\nper-level stats of first root:")
		fmt.Fprintln(w, "level  direction   frontier  avg-degree  examined(DRAM/NVM)   vtime")
		for _, l := range res.PerRoot[0].Levels {
			fmt.Fprintf(w, "%5d  %-10s %9d  %10.1f  %9d/%-9d  %v\n",
				l.Level, l.Direction, l.Frontier, l.AvgDegree(),
				l.ExaminedDRAM, l.ExaminedNVM, l.Time.ToTime())
		}
	}
}

// runBatched serves a sampled query stream through the batched
// multi-source engine instead of the per-root Graph500 protocol: queries
// are packed into batches of up to `lanes` roots, each batch advances all
// of its searches in one sweep of the shared stores, and the report prices
// every query at its amortized share of its batch's virtual time.
func runBatched(w io.Writer, list *edgelist.List, p graph500.Params, lanes, queries int) error {
	p = p.WithDefaults()
	start := time.Now()
	src := edgelist.ListSource{List: list}
	sys, err := core.Build(src, p.BFS.Topology, p.Scenario, core.BuildOptions{Dir: p.Dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	roots, err := graph500.SampleRoots(src.NumVertices(), queries, p.Seed, sys.Backward.Degree)
	if err != nil {
		return err
	}
	br, err := sys.NewBatchRunner(lanes, p.BFS)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "scenario:             %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "mode:                 %s  alpha=%g beta=%g\n", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
	fmt.Fprintf(w, "batch width:          %d lanes\n", lanes)
	fmt.Fprintf(w, "queries:              %d\n", len(roots))
	fmt.Fprintf(w, "BFS status bytes:     %s\n", stats.FormatBytes(br.StatusBytes()))
	fmt.Fprintln(w, "\nbatch   size  levels  switches        vtime   amortized s/query")
	var totalSec, invSum float64
	var traversed, hits, misses, readErrors, retries int64
	validated, nb, degradedBatches, degradedLevels := 0, 0, 0, 0
	for lo := 0; lo < len(roots); lo += lanes {
		hi := lo + lanes
		if hi > len(roots) {
			hi = len(roots)
		}
		b := roots[lo:hi]
		res, err := br.RunBatch(b)
		if err != nil {
			return fmt.Errorf("batch %d: %w", nb, err)
		}
		sec := res.Time.Seconds()
		totalSec += sec
		hits += res.Cache.Hits
		misses += res.Cache.Misses
		readErrors += res.Resilience.ReadErrors
		retries += res.Resilience.Retries
		if n := res.Resilience.DegradedLevels(); n > 0 {
			degradedBatches++
			degradedLevels += n
		}
		amort := sec / float64(len(b))
		fmt.Fprintf(w, "%5d  %5d  %6d  %8d  %11v  %18.4g\n",
			nb, len(b), len(res.Levels), res.Switches, res.Time.ToTime(), amort)
		for l, root := range b {
			var sum int64
			for v, par := range res.Trees[l] {
				if par != -1 {
					sum += sys.Backward.Degree(int64(v))
				}
			}
			te := sum / 2
			traversed += te
			if te > 0 {
				invSum += amort / float64(te)
			}
			if p.ValidateRoots == 0 || validated < p.ValidateRoots {
				if _, err := validate.Run(res.Trees[l], root, src); err != nil {
					return fmt.Errorf("query %d (root %d): %w", lo+l, root, err)
				}
				validated++
			}
		}
		nb++
	}
	fmt.Fprintf(w, "\nvalidated queries:    %d of %d\n", validated, len(roots))
	fmt.Fprintf(w, "total vtime:          %.6g s\n", totalSec)
	fmt.Fprintf(w, "amortized s/query:    %.6g\n", totalSec/float64(len(roots)))
	if invSum > 0 {
		fmt.Fprintf(w, "harmonic_mean_TEPS:   %s (amortized per query)\n",
			stats.FormatTEPS(float64(len(roots))/invSum))
	}
	if totalSec > 0 {
		fmt.Fprintf(w, "aggregate_TEPS:       %s\n", stats.FormatTEPS(float64(traversed)/totalSec))
	}
	if hits+misses > 0 {
		fmt.Fprintf(w, "cache hits:           %d of %d lookups (%.1f%%)\n",
			hits, hits+misses, 100*float64(hits)/float64(hits+misses))
	}
	if readErrors > 0 || degradedLevels > 0 {
		fmt.Fprintf(w, "NVM read errors:      %d (%d retried)\n", readErrors, retries)
		if degradedLevels > 0 {
			fmt.Fprintf(w, "degraded batches:     %d (%d levels rescued)\n",
				degradedBatches, degradedLevels)
		}
	}
	fmt.Fprintf(w, "wall time:            %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runServed plays the sampled query stream as an open-loop arrival process
// at the target virtual QPS through the always-on serving loop: arrivals
// join the next sweep's free lanes while earlier queries are still in
// flight, a bounded queue (if -queue-cap is set) sheds the excess per the
// policy, and deadlines expire queries the server cannot reach in time.
// The report accounts every query to exactly one outcome and prints the
// completion-latency and queue-wait histograms of the served ones.
func runServed(w io.Writer, list *edgelist.List, p graph500.Params, queries int, qps float64, scfg serve.ServerConfig) error {
	p = p.WithDefaults()
	start := time.Now()
	src := edgelist.ListSource{List: list}
	sys, err := core.Build(src, p.BFS.Topology, p.Scenario, core.BuildOptions{Dir: p.Dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	roots, err := graph500.SampleRoots(src.NumVertices(), queries, p.Seed, sys.Backward.Degree)
	if err != nil {
		return err
	}
	br, err := sys.NewBatchRunner(scfg.Lanes, p.BFS)
	if err != nil {
		return err
	}
	srv := serve.NewServer(br, sys.Backward.Degree, src.NumVertices(), scfg)
	defer srv.Close()

	trace := make([]serve.Arrival, len(roots))
	for i, root := range roots {
		trace[i] = serve.Arrival{Root: root, At: float64(i) / qps}
	}
	outs, err := srv.ServeTrace(trace)
	if err != nil {
		return err
	}
	st := srv.Stats()

	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "scenario:             %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "mode:                 %s  alpha=%g beta=%g\n", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
	fmt.Fprintf(w, "serving lanes:        %d\n", scfg.Lanes)
	fmt.Fprintf(w, "offered load:         %g queries/s (virtual), %d queries\n", qps, len(roots))
	if scfg.QueueCap > 0 {
		fmt.Fprintf(w, "queue cap:            %d (%s)\n", scfg.QueueCap, scfg.Policy)
	} else {
		fmt.Fprintf(w, "queue cap:            unbounded\n")
	}
	if scfg.DefaultDeadline > 0 {
		fmt.Fprintf(w, "deadline:             %gs\n", scfg.DefaultDeadline)
	}
	fmt.Fprintf(w, "BFS status bytes:     %s\n", stats.FormatBytes(br.StatusBytes()))

	validated, degraded := 0, 0
	var traversed int64
	var makespan float64
	for _, o := range outs {
		if o.Finished > makespan {
			makespan = o.Finished
		}
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

	fmt.Fprintf(w, "\nserved:               %d of %d\n", st.Served, st.Submitted)
	fmt.Fprintf(w, "shed:                 %d\n", st.Shed)
	fmt.Fprintf(w, "expired:              %d\n", st.Expired)
	if st.Cancelled > 0 || st.Failed > 0 {
		fmt.Fprintf(w, "cancelled/failed:     %d / %d\n", st.Cancelled, st.Failed)
	}
	if st.Served > 0 {
		fmt.Fprintf(w, "latency p50/p95/p99:  %.4g / %.4g / %.4g s (mean %.4g)\n",
			st.Latency.P50()/1e9, st.Latency.P95()/1e9, st.Latency.P99()/1e9, st.Latency.Mean()/1e9)
		fmt.Fprintf(w, "queue wait p50/p99:   %.4g / %.4g s\n", st.Wait.P50()/1e9, st.Wait.P99()/1e9)
	}
	fmt.Fprintf(w, "queue depth:          max %d, mean %.2f\n", st.MaxQueueDepth, st.MeanQueueDepth())
	fmt.Fprintf(w, "lane occupancy:       %.1f%% over %d sweeps\n", 100*st.Occupancy(scfg.Lanes), st.Steps)
	if degraded > 0 {
		fmt.Fprintf(w, "degraded queries:     %d\n", degraded)
	}
	layers := srv.Layers()
	if readErrors := layers.Get("retry", "read_errors"); readErrors > 0 {
		fmt.Fprintf(w, "NVM read errors:      %d (%d retried)\n",
			readErrors, layers.Get("retry", "retries"))
	}
	if c := layers.CacheView(); c.Hits+c.Misses > 0 {
		fmt.Fprintf(w, "cache hits:           %d of %d lookups (%.1f%%)\n",
			c.Hits, c.Hits+c.Misses, 100*c.HitRate())
	}
	fmt.Fprintf(w, "validated queries:    %d\n", validated)
	if makespan > 0 {
		fmt.Fprintf(w, "makespan vtime:       %.6g s\n", makespan)
		fmt.Fprintf(w, "aggregate_TEPS:       %s\n", stats.FormatTEPS(float64(traversed)/makespan))
	}
	fmt.Fprintf(w, "wall time:            %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runAlgorithm runs a non-BFS vertex program (connected components or
// PageRank) once through the configured storage stack and prints a
// Graph500-style report: the program's convergence summary plus the usual
// cache and resilience lines. The iterative algorithms are
// root-independent, so there is no per-root protocol — one run is the
// measurement.
func runAlgorithm(w io.Writer, list *edgelist.List, p graph500.Params, prOpts vp.PageRankOptions, showLevels, showLayers bool) error {
	p = p.WithDefaults()
	start := time.Now()
	src := edgelist.ListSource{List: list}
	sys, err := core.Build(src, p.BFS.Topology, p.Scenario, core.BuildOptions{Dir: p.Dir})
	if err != nil {
		return err
	}
	defer sys.Close()
	prog, err := sys.NewProgram(prOpts)
	if err != nil {
		return err
	}
	eng, err := sys.NewEngine(prog, vp.Config{Config: p.BFS})
	if err != nil {
		return err
	}
	res, err := eng.Run(0)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "scenario:             %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "algorithm:            %s\n", p.Scenario.Algorithm)
	fmt.Fprintf(w, "mode:                 %s  alpha=%g beta=%g\n", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
	fmt.Fprintf(w, "iterations:           %d (converged: %v, %d direction switches)\n",
		res.Iterations, res.Converged, res.Switches)
	fmt.Fprintf(w, "examined edges:       %d push, %d pull (%d from NVM)\n",
		res.ExaminedPush, res.ExaminedPull, res.ExaminedNVM)
	fmt.Fprintf(w, "vtime:                %v\n", res.Time.ToTime())
	if sec := res.Time.Seconds(); sec > 0 {
		fmt.Fprintf(w, "edges/s:              %s\n",
			stats.FormatTEPS(float64(res.ExaminedPush+res.ExaminedPull)/sec))
	}
	fmt.Fprintf(w, "state bytes:          %s (packed snapshot)\n", stats.FormatBytes(vp.StateBytes(prog)))
	switch pg := prog.(type) {
	case *vp.Components:
		counts := map[int64]int64{}
		for _, l := range pg.Labels() {
			counts[l]++
		}
		var largest int64
		for _, c := range counts {
			if c > largest {
				largest = c
			}
		}
		fmt.Fprintf(w, "components:           %d (largest %d vertices)\n", len(counts), largest)
	case *vp.PageRank:
		o := pg.Options()
		var sum float64
		for _, r := range pg.Ranks() {
			sum += r
		}
		fmt.Fprintf(w, "pagerank:             damping %g, tol %g, max %d iters; rank sum %.9f\n",
			o.Damping, o.Tol, o.MaxIters, sum)
	}
	if c := res.Cache; c.Hits+c.Misses > 0 {
		fmt.Fprintf(w, "cache hits:           %d of %d lookups (%.1f%%)\n",
			c.Hits, c.Hits+c.Misses, 100*c.HitRate())
	}
	if r := res.Resilience; r.ReadErrors > 0 || r.Retries > 0 {
		fmt.Fprintf(w, "NVM read errors:      %d (%d retried)\n", r.ReadErrors, r.Retries)
	}
	if r := res.Resilience; r.Failovers > 0 {
		fmt.Fprintf(w, "mirror failovers:     %d\n", r.Failovers)
	}
	fmt.Fprintf(w, "wall time:            %v\n", time.Since(start).Round(time.Millisecond))
	if showLevels && len(res.Levels) > 0 {
		fmt.Fprintln(w, "\nper-level stats:")
		fmt.Fprintln(w, "level  direction   frontier  avg-degree  examined(DRAM/NVM)   vtime")
		for _, l := range res.Levels {
			fmt.Fprintf(w, "%5d  %-10s %9d  %10.1f  %9d/%-9d  %v\n",
				l.Level, l.Direction, l.Frontier, l.AvgDegree(),
				l.ExaminedDRAM, l.ExaminedNVM, l.Time.ToTime())
		}
	}
	if showLayers {
		printLayers(w, res.Layers)
	}
	return nil
}

// runDynamic streams durable edge updates through the WAL-backed dynamic
// graph while the BFS iterations run: before each iteration one batch is
// appended to the log, applied to the DRAM overlay, and the maintained
// parent tree of the first root is repaired incrementally instead of
// recomputed. -crash-at injects a power cut mid WAL append or mid
// manifest flip; the run reboots on the surviving media, replays the
// log, and continues. The report extends the classic format with the
// durability lines and ends by checking the repaired tree bit-identical
// against a fresh rebuild over the final graph.
func runDynamic(w io.Writer, list *edgelist.List, p graph500.Params, total, rate int, crash string) error {
	p = p.WithDefaults()
	start := time.Now()
	if rate <= 0 {
		rate = (total + p.Roots - 1) / p.Roots
		if rate == 0 {
			rate = 1
		}
	}
	nbatch := (total + rate - 1) / rate
	sc := p.Scenario
	switch crash {
	case "none":
	case "wal":
		// Tear the WAL append of the middle batch.
		sc.Faults = faults.Config{Seed: p.Seed | 1, CutAtWrite: int64(nbatch/2 + 1), TornWrite: true, CutStores: "dyn-wal"}
	case "compaction":
		// The manifest's only write is compaction's generation flip.
		sc.Faults = faults.Config{Seed: p.Seed | 1, CutAtWrite: 1, TornWrite: true, CutStores: "dyn-manifest"}
	default:
		return fmt.Errorf("unknown -crash-at %q (want none, wal, or compaction)", crash)
	}

	src := edgelist.ListSource{List: list}
	clock := vtime.NewClock(0)
	ds, err := core.BuildDynamic(src, p.BFS.Topology, sc, clock)
	if err != nil {
		return err
	}
	defer ds.Close()
	roots, err := graph500.SampleRoots(src.NumVertices(), p.Roots,
		p.Seed, func(v int64) int64 { return ds.Graph.Backward().Degree(v) })
	if err != nil {
		return err
	}
	canonCfg := p.BFS
	canonCfg.Mode = bfs.ModeTopDownOnly
	runner, err := ds.NewRunner(p.BFS)
	if err != nil {
		return err
	}
	tracker, err := ds.NewRunner(canonCfg)
	if err != nil {
		return err
	}
	res0, err := tracker.Run(roots[0])
	if err != nil {
		return err
	}
	rebuildUs := float64(res0.Time) / float64(vtime.Microsecond)
	st := bfs.NewTreeState(roots[0], res0.Tree)

	fmt.Fprintf(w, "SCALE:                %d\n", p.Scale)
	fmt.Fprintf(w, "edgefactor:           %d\n", p.EdgeFactor)
	fmt.Fprintf(w, "NBFS:                 %d\n", len(roots))
	fmt.Fprintf(w, "scenario:             %s\n", p.Scenario.Name)
	fmt.Fprintf(w, "mode:                 %s  alpha=%g beta=%g\n", p.BFS.Mode, p.BFS.Alpha, p.BFS.Beta)
	fmt.Fprintf(w, "update stream:        %d updates in batches of %d, crash-at %s\n", total, rate, crash)
	fmt.Fprintln(w, "\niter  updates  repair-us  repair-edges        bfs-vtime        TEPS")

	us := dyn.NewUpdateStream(list, p.Seed|1)
	var updateTime, repairTime vtime.Duration
	var repairEdges int64
	var teps []float64
	batches, remaining := 0, total
	cutBatch := -1
	var recoveryUs float64
	var replayed int64
	iters := len(roots)
	if nbatch > iters {
		iters = nbatch
	}
	for i := 0; i < iters; i++ {
		applied, scanned := 0, int64(0)
		var repUs float64
		if remaining > 0 {
			size := rate
			if size > remaining {
				size = remaining
			}
			batch := us.Batch(size)
			bstart := clock.Now()
			_, aerr := ds.Graph.Apply(clock, batch)
			switch {
			case aerr == nil:
				updateTime += clock.Now() - bstart
				remaining -= size
				applied = size
				eu := make([]bfs.EdgeUpdate, len(batch))
				for j, up := range batch {
					eu[j] = bfs.EdgeUpdate{U: up.U, V: up.V, Del: up.Del}
				}
				rstart := clock.Now()
				rst, rerr := bfs.RepairTree(st, eu, ds.Backward(), ds.Part, clock)
				if rerr != nil {
					return rerr
				}
				repairTime += clock.Now() - rstart
				repUs = float64(clock.Now()-rstart) / float64(vtime.Microsecond)
				repairEdges += rst.EdgesScanned
				scanned = rst.EdgesScanned
				batches++
			case errors.Is(aerr, nvm.ErrPowerCut) && crash == "wal":
				// The torn frame never became durable: roll the mirror
				// back, reboot on the surviving media, and let the stream
				// continue on the recovered boot. The tracked tree was
				// only ever repaired with durable batches, so it is still
				// exact after replay.
				us.Unapply(batch)
				cutBatch = batches
				rclock := vtime.NewClock(0)
				if err := ds.Recover(rclock, faults.Config{}); err != nil {
					return fmt.Errorf("recovery after WAL cut: %w", err)
				}
				recoveryUs = float64(rclock.Now()) / float64(vtime.Microsecond)
				replayed = ds.Graph.Stats().Applied
				if runner, err = ds.NewRunner(p.BFS); err != nil {
					return err
				}
				if tracker, err = ds.NewRunner(canonCfg); err != nil {
					return err
				}
			default:
				return aerr
			}
		}
		if i < len(roots) {
			res, err := runner.Run(roots[i])
			if err != nil {
				return err
			}
			var sum int64
			for v, par := range res.Tree {
				if par != -1 {
					sum += ds.Graph.Backward().Degree(int64(v))
				}
			}
			te := float64(sum / 2)
			sec := res.Time.Seconds()
			if sec > 0 && te > 0 {
				teps = append(teps, te/sec)
			}
			fmt.Fprintf(w, "%4d  %7d  %9.1f  %12d  %15v  %10s\n",
				i, applied, repUs, scanned, res.Time.ToTime(), stats.FormatTEPS(te/sec))
		}
	}

	var compactUs float64
	switch crash {
	case "none":
		cstart := clock.Now()
		if err := ds.Graph.Compact(clock); err != nil {
			return err
		}
		compactUs = float64(clock.Now()-cstart) / float64(vtime.Microsecond)
	case "wal":
		if cutBatch < 0 {
			return fmt.Errorf("the scheduled WAL power cut never fired")
		}
	case "compaction":
		if err := ds.Graph.Compact(clock); !errors.Is(err, nvm.ErrPowerCut) {
			return fmt.Errorf("compact: %v, want a power cut", err)
		}
		rclock := vtime.NewClock(0)
		if err := ds.Recover(rclock, faults.Config{}); err != nil {
			return fmt.Errorf("recovery after compaction cut: %w", err)
		}
		recoveryUs = float64(rclock.Now()) / float64(vtime.Microsecond)
		replayed = ds.Graph.Stats().Applied
		// The recovered boot compacts cleanly: the interrupted flip left
		// only orphan shadow stores behind.
		cstart := rclock.Now()
		if err := ds.Graph.Compact(rclock); err != nil {
			return fmt.Errorf("post-recovery compaction: %w", err)
		}
		compactUs = float64(rclock.Now()-cstart) / float64(vtime.Microsecond)
		if tracker, err = ds.NewRunner(canonCfg); err != nil {
			return err
		}
	}

	dst := ds.Graph.Stats()
	fmt.Fprintf(w, "\ndurable updates:      %d applied in %d batches\n", dst.Applied, batches)
	fmt.Fprintf(w, "WAL:                  %d appends, %s\n", dst.WALAppends, stats.FormatBytes(dst.WALBytes))
	if dst.Applied > 0 {
		fmt.Fprintf(w, "update cost:          %.2f us/update (virtual)\n",
			float64(updateTime)/float64(vtime.Microsecond)/float64(dst.Applied))
	}
	if batches > 0 {
		repUs := float64(repairTime) / float64(vtime.Microsecond) / float64(batches)
		vs := "free: scans stayed in DRAM"
		if repUs > 0 {
			vs = fmt.Sprintf("rebuild %.1f us, %.0fx", rebuildUs, rebuildUs/repUs)
		}
		fmt.Fprintf(w, "incremental repair:   %.1f us/batch, %.0f edges scanned/batch (%s)\n",
			repUs, float64(repairEdges)/float64(batches), vs)
	}
	if crash != "none" {
		where := "compaction manifest flip"
		if crash == "wal" {
			where = fmt.Sprintf("WAL append of batch %d (torn frame dropped)", cutBatch+1)
		}
		fmt.Fprintf(w, "power cut:            %s\n", where)
		fmt.Fprintf(w, "recovery:             %.1f us virtual, %d updates replayed\n", recoveryUs, replayed)
	}
	if compactUs > 0 {
		fmt.Fprintf(w, "compaction:           %.1f us virtual (generation %d)\n", compactUs, ds.Graph.Generation())
	}
	if len(teps) > 0 {
		s := stats.Summarize(teps)
		fmt.Fprintf(w, "median_TEPS:          %s\n", stats.FormatTEPS(s.Median))
		fmt.Fprintf(w, "harmonic_mean_TEPS:   %s\n", stats.FormatTEPS(s.HarmonicMean))
	}
	fresh, err := tracker.Run(roots[0])
	if err != nil {
		return err
	}
	for v := range fresh.Tree {
		if fresh.Tree[v] != st.Parent[v] {
			return fmt.Errorf("repair equivalence FAILED: parent[%d] = %d, fresh rebuild says %d",
				v, st.Parent[v], fresh.Tree[v])
		}
	}
	fmt.Fprintf(w, "repair equivalence:   OK (%d batches repaired, tree bit-identical to fresh rebuild)\n", batches)
	fmt.Fprintf(w, "wall time:            %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "graph500:", err)
	return 1
}

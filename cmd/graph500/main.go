// Command graph500 runs the Graph500 benchmark protocol (generate,
// construct, 64 x BFS + validate) over one of the paper's three scenarios
// and prints a Graph500-style report. A handful of flags select one of the
// other run protocols instead (the modes table below, and in README.md); a
// flag the selected mode does not honour is an error, not a no-op.
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
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/serve"
	"semibfs/internal/vp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process edges injected, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{report: report{w: stdout, start: time.Now()}}
	fs := c.flagSet(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := c.configure(fs)
	if err == nil {
		c.list, err = c.loadList()
	}
	if err == nil {
		err = c.m.run(c)
	}
	if err != nil {
		fmt.Fprintln(stderr, "graph500:", err)
		return 1
	}
	return 0
}

// options holds the flag values as parsed.
type options struct {
	scale, edgeFactor, roots, validate, prIters, bwLimit, faultRep, replicas,
	readahead, queueDepth, prefetch, batch, queries, queueCap, updates, updRate int
	faultAfter                                                           int64
	seed, faultSeed                                                      uint64
	alpha, betaMult, prTol, faultRate, corrupt, scrubRate, qps, deadline float64
	scenario, modeName, algo, dir, latScale, edges, cacheSize, shedPolicy,
	grid, crashAt string
	showLevels, aggIO, idxDRAM, elNVM, official, compress, showLayers bool
}

// cli is one invocation: the flags, what they resolve to, and the report.
type cli struct {
	options
	report
	m      *mode
	p      graph500.Params
	alg    vp.Algorithm
	isRef  bool
	policy serve.Policy
	crash  string
	list   *edgelist.List
}

func (c *cli) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("graph500", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&c.scale, "scale", 18, "log2 of the number of vertices")
	fs.IntVar(&c.edgeFactor, "edgefactor", 16, "edges per vertex")
	fs.Uint64Var(&c.seed, "seed", 12345, "graph generator seed")
	fs.IntVar(&c.roots, "roots", 64, "number of BFS iterations")
	fs.IntVar(&c.validate, "validate", 4, "fully validate this many roots (0 = all)")
	fs.StringVar(&c.scenario, "scenario", "dram", "dram | pcie | ssd")
	fs.Float64Var(&c.alpha, "alpha", 1e4, "top-down -> bottom-up switch threshold")
	fs.Float64Var(&c.betaMult, "beta-mult", 10, "beta = beta-mult * alpha")
	fs.StringVar(&c.modeName, "mode", "hybrid", "hybrid | topdown | bottomup | reference")
	fs.StringVar(&c.algo, "algo", "bfs", "vertex program: bfs (Graph500 protocol) | cc (connected components) | pagerank")
	fs.Float64Var(&c.prTol, "pr-tol", 0, "PageRank L1 convergence tolerance (0 = 1e-6; requires -algo pagerank)")
	fs.IntVar(&c.prIters, "pr-iters", 0, "PageRank iteration cap (0 = 100; requires -algo pagerank)")
	fs.StringVar(&c.dir, "dir", "", "directory for NVM store files (empty = in-memory)")
	fs.IntVar(&c.bwLimit, "backward-limit", 0, "DRAM edges per vertex for the backward graph (0 = all)")
	fs.BoolVar(&c.showLevels, "levels", false, "print per-level statistics of the first root")
	fs.StringVar(&c.latScale, "latency-scale", "1", "device latency scale factor, or 'auto' for the SCALE-27 equivalence factor")
	fs.BoolVar(&c.aggIO, "aggregate-io", false, "raise forward-graph requests from 4 KiB to 128 KiB (libaio-style aggregation ablation)")
	fs.BoolVar(&c.idxDRAM, "index-in-dram", false, "keep the forward graph's index arrays in DRAM (ablation; the paper stores them on NVM)")
	fs.BoolVar(&c.elNVM, "edgelist-nvm", false, "offload the edge list to its own NVM store and stream construction/validation from it (the paper's Step 1/2 data path)")
	fs.StringVar(&c.edges, "edges", "", "load the edge list from a file written by cmd/gen instead of generating")
	fs.BoolVar(&c.official, "official", false, "print the official Graph500 output format instead of the extended report")
	fs.Float64Var(&c.faultRate, "fault-rate", 0, "inject transient read errors at this rate on every NVM store")
	fs.Int64Var(&c.faultAfter, "fault-after", 0, "kill each NVM store permanently after this many reads (0 = never)")
	fs.Uint64Var(&c.faultSeed, "fault-seed", 1, "seed for the deterministic fault schedule")
	fs.Float64Var(&c.corrupt, "fault-corrupt", 0, "bit-flip corruption rate on NVM reads (enables CRC32 checksums)")
	fs.IntVar(&c.faultRep, "fault-replica", 0, "restrict -fault-after to one replica: 1 kills replica 0, ... (0 = all stores)")
	fs.IntVar(&c.replicas, "replicas", 1, "mirror the forward graph across this many simulated devices")
	fs.Float64Var(&c.scrubRate, "scrub-rate", 0, "background scrub pace in blocks per virtual second (0 = off; requires -replicas > 1)")
	fs.StringVar(&c.cacheSize, "cache-bytes", "", "DRAM page-cache budget for the forward graph, e.g. 64M or 1G (empty = no cache)")
	fs.IntVar(&c.readahead, "readahead", 0, "value-store readahead depth in cache blocks (requires -cache-bytes)")
	fs.BoolVar(&c.compress, "compress", false, "store NVM adjacency delta+varint compressed (trades device bytes for host decode time)")
	fs.IntVar(&c.queueDepth, "queue-depth", 0, "async I/O pipeline slots above each NVM store's cache (0 = synchronous; requires -cache-bytes)")
	fs.IntVar(&c.prefetch, "prefetch", 0, "frontier vertices announced for readahead per top-down chunk (0 = off; requires -cache-bytes)")
	fs.BoolVar(&c.showLayers, "layers", false, "print the per-layer storage-stack counter report")
	fs.IntVar(&c.batch, "batch", 0, "batched multi-source mode: BFS lanes per batch, 1-64 (0 = classic per-root protocol)")
	fs.IntVar(&c.queries, "queries", 0, "query-stream length in batched mode (0 = -roots; requires -batch)")
	fs.Float64Var(&c.qps, "qps", 0, "serving mode: open-loop query arrivals at this rate on the virtual clock (requires -batch)")
	fs.Float64Var(&c.deadline, "deadline", 0, "serving mode: per-query virtual deadline in seconds (0 = none)")
	fs.IntVar(&c.queueCap, "queue-cap", 0, "serving mode: submission-queue bound; full queues shed per -shed-policy (0 = unbounded)")
	fs.StringVar(&c.shedPolicy, "shed-policy", "reject-newest", "serving mode: reject-newest | reject-oldest | reject-lowest-priority")
	fs.StringVar(&c.grid, "grid", "", "simulate an RxC cluster (e.g. 4x4): the adjacency is 2D-blocked and every machine carries the scenario's per-node storage stack")
	fs.IntVar(&c.updates, "updates", 0, "dynamic mode: stream this many durable graph updates through the WAL, interleaved with the BFS iterations (requires pcie or ssd)")
	fs.IntVar(&c.updRate, "update-rate", 0, "dynamic mode: updates per batch; one batch is logged, applied, and repaired before each BFS iteration (0 = updates/roots)")
	fs.StringVar(&c.crashAt, "crash-at", "none", "dynamic mode: inject a power cut during 'wal' (mid log append) or 'compaction' (mid manifest flip), then recover (none = crash-free)")
	return fs
}

// Flag groups of the mode table.
const (
	graphFlags  = "scale edgefactor seed edges "
	rootFlags   = "roots validate "
	searchFlags = "alpha beta-mult mode "
	// deviceFlags shape the per-node storage stack of every NVM build, a
	// grid's machines included; nodeFlags only reach a single-node build.
	deviceFlags = "scenario latency-scale cache-bytes compress queue-depth replicas fault-rate fault-after fault-seed fault-corrupt fault-replica "
	nodeFlags   = "backward-limit readahead prefetch scrub-rate aggregate-io index-in-dram "
	batchFlags  = graphFlags + rootFlags + searchFlags + deviceFlags + nodeFlags + "dir batch queries "

	// Value rules that hold in every mode, by flag.
	nvmFlags    = "backward-limit aggregate-io index-in-dram fault-rate fault-after fault-corrupt replicas scrub-rate cache-bytes compress queue-depth prefetch updates "
	cacheFlags  = "readahead queue-depth prefetch "
	nonNegFlags = "backward-limit fault-rate fault-after fault-corrupt fault-replica scrub-rate readahead queue-depth prefetch pr-tol pr-iters qps deadline queue-cap updates update-rate "
)

// mode is one run protocol: what selects it, the flags it honours (a flag
// moved off its default outside this set is an error naming both), and the
// function that runs it and prints its report.
type mode struct {
	name     string
	selector string
	selected func(c *cli) bool
	honours  string
	run      func(c *cli) error
}

// modes is ordered by precedence: the first selected entry runs.
var modes = []mode{
	{"grid", "-grid RxC", func(c *cli) bool { return c.grid != "" },
		graphFlags + rootFlags + "alpha beta-mult " + deviceFlags + "grid ", runGrid},
	{"algo", "-algo cc/pagerank", func(c *cli) bool { return c.alg != vp.AlgoBFS },
		graphFlags + searchFlags + deviceFlags + nodeFlags + "dir levels layers algo pr-tol pr-iters ", runAlgorithm},
	{"updates", "-updates N", func(c *cli) bool { return c.updates > 0 },
		graphFlags + "roots " + searchFlags + deviceFlags + nodeFlags + "updates update-rate crash-at ", runUpdates},
	{"serve", "-batch B -qps Q", func(c *cli) bool { return c.batch > 0 && c.qps > 0 },
		batchFlags + "qps deadline queue-cap shed-policy ", runServed},
	{"batch", "-batch B", func(c *cli) bool { return c.batch > 0 }, batchFlags, runBatched},
	{"reference", "-mode reference", func(c *cli) bool { return c.isRef },
		graphFlags + rootFlags + "mode levels layers official ", runClassic},
	{"classic", "none of the above", func(c *cli) bool { return true },
		graphFlags + rootFlags + searchFlags + deviceFlags + nodeFlags + "dir edgelist-nvm levels layers official ", runClassic},
}

func has(flags, name string) bool { return strings.Contains(" "+flags, " "+name+" ") }

// configure resolves the parsed flags: it selects the mode, rejects every
// flag set off its default that the mode does not honour or whose value
// rule fails, and builds the scenario and benchmark parameters.
func (c *cli) configure(fs *flag.FlagSet) error {
	var err error
	if c.alg, err = vp.ParseAlgorithm(c.algo); err != nil {
		return err
	}
	var bfsMode bfs.Mode
	if bfsMode, c.isRef, err = modeByName(c.modeName); err != nil {
		return err
	}
	if c.policy, err = serve.ParsePolicy(c.shedPolicy); err != nil {
		return err
	}
	if c.crash = strings.ToLower(c.crashAt); c.crash == "" {
		c.crash = "none"
	}
	sc, err := scenarioByName(c.scenario)
	if err != nil {
		return err
	}
	for i := range modes {
		if c.m = &modes[i]; c.m.selected(c) {
			break
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if err != nil || f.Value.String() == f.DefValue {
			return
		}
		switch {
		case !has(c.m.honours, f.Name):
			var takers []string
			for _, m := range modes {
				if has(m.honours, f.Name) {
					takers = append(takers, m.name)
				}
			}
			err = fmt.Errorf("-%s does not apply to %s mode (selected by: %s); modes that honour it: %s",
				f.Name, c.m.name, c.m.selector, strings.Join(takers, ", "))
		case has(nvmFlags, f.Name) && !sc.HasNVM():
			err = fmt.Errorf("-%s requires an NVM scenario (pcie or ssd)", f.Name)
		case has(cacheFlags, f.Name) && c.cacheSize == "":
			err = fmt.Errorf("-%s requires -cache-bytes (the pipeline fills cache pages)", f.Name)
		case has(nonNegFlags, f.Name) && strings.HasPrefix(f.Value.String(), "-"):
			err = fmt.Errorf("-%s must be >= 0", f.Name)
		}
	})
	if err != nil {
		return err
	}
	if c.isRef && c.m.name != "reference" {
		return fmt.Errorf("-mode reference is its own mode; it does not combine with %s mode (%s)", c.m.name, c.m.selector)
	}
	if (c.prTol != 0 || c.prIters != 0) && c.alg != vp.AlgoPageRank {
		return fmt.Errorf("-pr-tol / -pr-iters require -algo pagerank")
	}
	if sc, err = c.buildScenario(sc); err != nil {
		return err
	}
	c.p = graph500.Params{
		Scale:          c.scale,
		EdgeFactor:     c.edgeFactor,
		Seed:           c.seed,
		Roots:          c.roots,
		ValidateRoots:  c.validate,
		Scenario:       sc,
		Dir:            c.dir,
		KeepLevelStats: c.showLevels,
		EdgeListOnNVM:  c.elNVM,
		BFS:            bfs.Config{Alpha: c.alpha, Beta: c.betaMult * c.alpha, Mode: bfsMode},
	}.WithDefaults()
	return nil
}

// buildScenario applies the storage flags to sc. configure has already
// checked the NVM, -cache-bytes and sign rules.
func (c *cli) buildScenario(sc core.Scenario) (core.Scenario, error) {
	if c.bwLimit > 0 {
		sc.BackwardDRAMEdgeLimit = c.bwLimit
	}
	switch c.latScale {
	case "", "1":
	case "auto":
		sc.LatencyScale = nvm.ScaleEquivalenceFactor(c.scale, 27)
	default:
		f, err := strconv.ParseFloat(c.latScale, 64)
		if err != nil {
			return sc, fmt.Errorf("bad -latency-scale %q: %v", c.latScale, err)
		}
		sc.LatencyScale = f
	}
	sc.AggregateIO, sc.IndexInDRAM = c.aggIO, c.idxDRAM
	if c.faultRate > 1 || c.corrupt > 1 {
		return sc, fmt.Errorf("-fault-rate / -fault-corrupt must be in [0, 1]")
	}
	if c.faultRate > 0 || c.faultAfter > 0 || c.corrupt > 0 {
		sc.Faults = faults.Config{
			Seed:          c.faultSeed,
			TransientRate: c.faultRate,
			DieAfterReads: c.faultAfter,
			CorruptRate:   c.corrupt,
			DieReplica:    c.faultRep,
		}
		// Corruption without checksums is silent; always pair them.
		sc.Checksums = c.corrupt > 0
	}
	if c.replicas < 1 {
		return sc, fmt.Errorf("-replicas must be >= 1")
	}
	if c.scrubRate > 0 && c.replicas == 1 {
		return sc, fmt.Errorf("-scrub-rate requires -replicas > 1 (a lone device has no mirror to repair from)")
	}
	if c.replicas > 1 {
		sc = sc.WithReplicas(c.replicas, c.scrubRate)
	}
	if c.faultRep > c.replicas {
		return sc, fmt.Errorf("-fault-replica must be in [0, %d]", c.replicas)
	}
	if c.cacheSize != "" {
		budget, err := parseBytes(c.cacheSize)
		if err != nil {
			return sc, fmt.Errorf("bad -cache-bytes %q: %v", c.cacheSize, err)
		}
		sc.CacheBytes = budget
	}
	if c.readahead > 0 {
		sc.ReadaheadBlocks = c.readahead
	}
	if c.compress || c.queueDepth > 0 || c.prefetch > 0 {
		sc = sc.WithIO(c.compress, c.queueDepth, c.prefetch)
	}
	return sc, nil
}

// loadList is Step 1: the edge list, from -edges or the generator.
func (c *cli) loadList() (*edgelist.List, error) {
	if c.edges != "" {
		return edgelist.LoadFile(c.edges)
	}
	return generator.Generate(generator.Config{Scale: c.scale, EdgeFactor: c.edgeFactor, Seed: c.seed})
}

func (c *cli) src() edgelist.ListSource { return edgelist.ListSource{List: c.list} }

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

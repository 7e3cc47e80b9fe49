// Package graph500 drives the full Graph500 benchmark protocol over the
// paper's offloaded systems: Step 1 edge-list generation (offloaded to its
// own NVM store, as the paper isolates it from the CSR device so iostat
// only sees BFS traffic), Step 2 graph construction, Step 3 BFS from 64
// random roots, and Step 4 validation, reporting the median TEPS.
package graph500

import (
	"fmt"
	"path/filepath"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/stats"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// DefaultRoots is the number of BFS iterations the Graph500 spec requires.
const DefaultRoots = 64

// Params configures one benchmark execution.
type Params struct {
	// Scale / EdgeFactor / Seed parameterize the Kronecker instance.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// Roots is the number of BFS iterations (Graph500 uses 64); 0
	// selects DefaultRoots.
	Roots int
	// ValidateRoots fully validates the first this-many roots against
	// the edge list (0 validates all of them). Every root's TEPS
	// denominator is still exact: it is derived from the degrees of the
	// visited set, which rule 5 of the validator proves equivalent.
	ValidateRoots int
	// Scenario selects the DRAM/NVM configuration.
	Scenario core.Scenario
	// BFS configures the traversal (alpha, beta, mode, topology).
	BFS bfs.Config
	// Dir places store files on disk; empty uses in-memory stores.
	Dir string
	// SeriesBinWidth enables per-bin device statistics when positive.
	SeriesBinWidth vtime.Duration
	// SortMode overrides the backward graph's adjacency order; the zero
	// value is csr.SortByDegreeDesc.
	SortMode csr.SortMode
	// KeepLevelStats retains per-level statistics for every root (the
	// degradation analyses need them); otherwise only totals are kept.
	KeepLevelStats bool
	// EdgeListOnNVM offloads the generated edge list to its own NVM
	// store (its own device, isolated from the CSR device exactly as in
	// the paper's Section VI-D setup) and streams graph construction
	// and validation from it — the paper's full Step 1/2/4 data path.
	EdgeListOnNVM bool
}

// WithDefaults returns p with zero fields defaulted.
func (p Params) WithDefaults() Params {
	if p.EdgeFactor == 0 {
		p.EdgeFactor = generator.DefaultEdgeFactor
	}
	if p.Roots == 0 {
		p.Roots = DefaultRoots
	}
	if p.Scenario.Name == "" {
		p.Scenario = core.ScenarioDRAMOnly
	}
	p.BFS = p.BFS.WithDefaults()
	return p
}

// RootResult is one BFS iteration's outcome.
type RootResult struct {
	Root      int64
	Time      vtime.Duration
	Traversed int64
	Visited   int64
	TEPS      float64
	// ExaminedTD / ExaminedBU are the edges actually examined by each
	// direction (Figure 10's quantity).
	ExaminedTD  int64
	ExaminedBU  int64
	ExaminedNVM int64
	Switches    int
	// Resilience summarizes the run's fault handling (zero over healthy
	// devices).
	Resilience bfs.Resilience
	// Cache summarizes the run's forward-graph page-cache activity (zero
	// when no cache is configured).
	Cache nvm.CacheStats
	// Layers is the run's per-layer storage-stack counter delta (nil for
	// DRAM-resident graphs).
	Layers nvm.StackStats
	// Levels is retained only when Params.KeepLevelStats is set.
	Levels []bfs.LevelStats
}

// ResilienceTotals aggregates fault handling across all BFS iterations.
type ResilienceTotals struct {
	Retries    int64
	ReadErrors int64
	// BackoffTime is the total virtual time spent in retry backoff.
	BackoffTime vtime.Duration
	// Failovers counts mirror reads redirected to another replica;
	// ScrubbedBlocks / RepairedBlocks count the background scrubber's
	// verified and rewritten blocks; RepairTime is the virtual time those
	// repairs took (all zero without a device array).
	Failovers      int64
	ScrubbedBlocks int64
	RepairedBlocks int64
	RepairTime     vtime.Duration
	// DegradedRuns counts roots whose traversal had to pin to the
	// surviving direction after a device death; DegradedLevels counts the
	// rescued levels themselves.
	DegradedRuns   int
	DegradedLevels int
}

// Result is a complete benchmark execution report.
type Result struct {
	Params  Params
	N, M    int64
	PerRoot []RootResult
	TEPS    stats.Summary
	// DeviceStats snapshots the CSR device after all BFS iterations
	// (zero value for DRAM-only; the first replica's with a mirror).
	DeviceStats  nvm.Stats
	DeviceSeries []nvm.SeriesPoint
	// PerDevice snapshots every replica device of a mirrored array (len 1
	// without mirroring, nil for DRAM-only).
	PerDevice []nvm.Stats
	// DeviceHealth is the mirror layer's per-device health after the last
	// root (nil without a device array).
	DeviceHealth []nvm.ReplicaHealth
	// Placement records where the graph bytes ended up.
	DRAMBytes, NVMBytes int64
	StatusBytes         int64
	// BackwardDRAMEdges / BackwardNVMEdges support the Figure 14
	// access-ratio analysis.
	BackwardNVMScans  int64
	BackwardDRAMScans int64
	// ConstructionTime is the virtual time of Step 2 (edge-list offload
	// plus both CSR builds); it is tracked only when EdgeListOnNVM is
	// set, since an in-DRAM construction is not modeled.
	ConstructionTime vtime.Duration
	// EdgeListDevice snapshots the edge list's own device after the
	// run (zero value unless EdgeListOnNVM).
	EdgeListDevice nvm.Stats
	// Resilience aggregates retry/backoff/degradation over all roots.
	Resilience ResilienceTotals
	// Faults snapshots the injected-fault totals (zero when the scenario
	// injects none).
	Faults faults.Counters
	// CacheStats aggregates the forward-graph page cache's activity over
	// all BFS iterations (zero when the scenario configures no cache).
	CacheStats nvm.CacheStats
	// CompressionRatio is the forward graph's raw adjacency bytes over
	// the bytes actually stored on NVM (1 when not compressed, 0 for
	// DRAM-only).
	CompressionRatio float64
	// Layers aggregates the per-layer storage-stack counters over all BFS
	// iterations (nil for DRAM-resident graphs). Gauge counters keep their
	// configured values instead of summing.
	Layers nvm.StackStats
}

// MedianTEPS returns the benchmark score (the median over roots).
func (r *Result) MedianTEPS() float64 { return r.TEPS.Median }

// Run executes the benchmark from scratch (Steps 1-4) and returns its
// report.
func Run(p Params) (*Result, error) {
	p = p.WithDefaults()
	gen := generator.Config{Scale: p.Scale, EdgeFactor: p.EdgeFactor, Seed: p.Seed}
	if err := gen.Validate(); err != nil {
		return nil, err
	}

	// Step 1: generate the edge list.
	list, err := generator.Generate(gen)
	if err != nil {
		return nil, err
	}
	return RunList(list, p)
}

// RunList executes Steps 2-4 over a pre-existing edge list (for example
// one loaded from a file written by cmd/gen), honoring every Params field
// including EdgeListOnNVM. Scale/EdgeFactor/Seed are used only for
// labeling and root sampling.
func RunList(list *edgelist.List, p Params) (*Result, error) {
	p = p.WithDefaults()
	var src edgelist.Source = edgelist.ListSource{List: list}

	// With EdgeListOnNVM, offload the tuples to their own store and
	// device, and stream everything downstream from there.
	var constructClock *vtime.Clock
	var edgeDev *nvm.Device
	if p.EdgeListOnNVM {
		profile := nvm.ProfileIoDrive2
		if p.Scenario.HasNVM() {
			profile = p.Scenario.Device
			if p.Scenario.LatencyScale > 0 {
				profile = profile.WithLatencyScale(p.Scenario.LatencyScale)
			}
		}
		edgeDev = nvm.NewDevice(profile, 0)
		var store nvm.Storage
		if p.Dir != "" {
			fs, err := nvm.CreateFileStore(filepath.Join(p.Dir, "edgelist.bin"), edgeDev, 0)
			if err != nil {
				return nil, err
			}
			defer fs.Close()
			store = fs
		} else {
			store = nvm.NewMemStore(edgeDev, 0)
		}
		constructClock = vtime.NewClock(0)
		if err := edgelist.WriteToStore(store, constructClock, list.Edges); err != nil {
			return nil, err
		}
		src = edgelist.StoreSource{
			Store: store,
			Clock: constructClock,
			N:     list.NumVertices,
			M:     int64(len(list.Edges)),
		}
	}

	// Step 2: construct and place the graphs.
	opts := core.BuildOptions{
		Dir:            p.Dir,
		SeriesBinWidth: p.SeriesBinWidth,
		SortMode:       p.SortMode,
		ConstructClock: constructClock,
	}
	sys, err := core.Build(src, p.BFS.Topology, p.Scenario, opts)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// Snapshot Step 2's virtual time before the BFS iterations start:
	// Step 4 validation streams the edge list through the same clock,
	// and that traffic belongs to the iterations, not to construction.
	var constructionTime vtime.Duration
	if constructClock != nil {
		constructionTime = constructClock.Now()
	}
	res, err := RunOnSystem(sys, src, p)
	if err != nil {
		return nil, err
	}
	res.ConstructionTime = constructionTime
	if edgeDev != nil {
		res.EdgeListDevice = edgeDev.Snapshot()
	}
	return res, nil
}

// RunOnSystem executes Steps 3-4 (BFS iterations plus validation) over an
// already-built system. The sweep harness uses it to amortize generation
// and construction across many (alpha, beta) points. Device statistics are
// reset at entry so each call observes only its own traffic.
func RunOnSystem(sys *core.System, src edgelist.Source, p Params) (*Result, error) {
	p = p.WithDefaults()
	for _, dev := range sys.Devices {
		// Construction (or prior-run) traffic is not part of this
		// run's measurements.
		dev.Reset()
	}
	if len(sys.Devices) == 0 && sys.Device != nil {
		// Hand-assembled systems may carry only the single device.
		sys.Device.Reset()
	}
	if c := sys.PageCache(); c != nil {
		// Start cold so repeated calls over a shared system measure the
		// same thing (and stay deterministic). The cache warms across
		// this call's roots, as it would across a real benchmark run.
		c.Reset()
	}

	runner, err := sys.NewRunner(p.BFS)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Params:      p,
		N:           src.NumVertices(),
		M:           src.NumEdges(),
		DRAMBytes:   sys.DRAMBytes(),
		NVMBytes:    sys.NVMBytes(),
		StatusBytes: runner.StatusBytes(),
	}
	if sf := sys.SemiForward(); sf != nil {
		res.CompressionRatio = sf.CompressionRatio()
	}

	// Degree lookup for TEPS denominators and root selection.
	degree := func(v int64) int64 { return sys.Backward.Degree(v) }

	roots, err := SampleRoots(src.NumVertices(), p.Roots, p.Seed, degree)
	if err != nil {
		return nil, err
	}

	if err := res.runRoots(runner.Run, roots, src, degree); err != nil {
		return nil, err
	}
	if sys.Device != nil {
		res.DeviceStats = sys.Device.Snapshot()
		res.DeviceSeries = sys.Device.Series()
	}
	for _, dev := range sys.Devices {
		res.PerDevice = append(res.PerDevice, dev.Snapshot())
	}
	res.BackwardDRAMScans, res.BackwardNVMScans = runner.BackwardScanTotals()
	res.Faults = sys.FaultCounters()
	return res, nil
}

// runRoots is Steps 3-4 over any single-source runner: one traversal per
// root, fully validated against src for the first Params.ValidateRoots
// roots (0 = all) and priced off the visited degrees for the rest, folded
// into res.
func (res *Result) runRoots(run func(root int64) (*bfs.Result, error), roots []int64,
	src edgelist.Source, degree func(int64) int64) error {
	p := res.Params
	teps := make([]float64, 0, len(roots))
	for i, root := range roots {
		// Step 3: BFS.
		out, err := run(root)
		if err != nil {
			return fmt.Errorf("graph500: BFS from root %d: %w", root, err)
		}
		// Step 4: validation.
		var traversed int64
		if p.ValidateRoots == 0 || i < p.ValidateRoots {
			rep, err := validate.Run(out.Tree, root, src)
			if err != nil {
				return fmt.Errorf("graph500: validation failed for root %d: %w", root, err)
			}
			traversed = rep.TraversedEdges
		} else {
			traversed = validate.TraversedEdges(out.Tree, degree)
		}
		rr := RootResult{
			Root:        root,
			Time:        out.Time,
			Traversed:   traversed,
			Visited:     out.Visited,
			ExaminedTD:  out.ExaminedTD,
			ExaminedBU:  out.ExaminedBU,
			ExaminedNVM: out.ExaminedNVM,
			Switches:    out.Switches,
			Resilience:  out.Resilience,
			Cache:       out.Cache,
			Layers:      out.Layers,
		}
		res.CacheStats = res.CacheStats.Add(out.Cache)
		res.Layers = res.Layers.Add(out.Layers)
		res.Resilience.Retries += out.Resilience.Retries
		res.Resilience.ReadErrors += out.Resilience.ReadErrors
		res.Resilience.BackoffTime += out.Resilience.BackoffTime
		res.Resilience.Failovers += out.Resilience.Failovers
		res.Resilience.ScrubbedBlocks += out.Resilience.ScrubbedBlocks
		res.Resilience.RepairedBlocks += out.Resilience.RepairedBlocks
		res.Resilience.RepairTime += out.Resilience.RepairTime
		res.DeviceHealth = out.Resilience.Devices
		if n := out.Resilience.DegradedLevels(); n > 0 {
			res.Resilience.DegradedRuns++
			res.Resilience.DegradedLevels += n
		}
		if out.Time > 0 {
			rr.TEPS = float64(traversed) / out.Time.Seconds()
		}
		if p.KeepLevelStats {
			rr.Levels = out.Levels
		}
		res.PerRoot = append(res.PerRoot, rr)
		teps = append(teps, rr.TEPS)
	}
	res.TEPS = stats.Summarize(teps)
	return nil
}

// SampleRoots draws count distinct roots with non-zero degree, as the
// Graph500 spec requires ("search keys must be randomly sampled from the
// vertices; discard keys with no outgoing edges").
func SampleRoots(n int64, count int, seed uint64, degree func(int64) int64) ([]int64, error) {
	g := rng.NewXoroshiro128(seed ^ 0x526f6f7473) // "Roots"
	seen := make(map[int64]bool, count)
	roots := make([]int64, 0, count)
	// A Kronecker graph has many isolated vertices, but far fewer than
	// half, so rejection sampling terminates quickly; the attempt bound
	// guards degenerate custom graphs.
	maxAttempts := int64(count)*1000 + 1000
	for attempts := int64(0); int64(len(roots)) < int64(count); attempts++ {
		if attempts > maxAttempts {
			return nil, fmt.Errorf(
				"graph500: could not find %d distinct non-isolated roots (found %d)",
				count, len(roots))
		}
		v := int64(g.Uint64n(uint64(n)))
		if seen[v] || degree(v) == 0 {
			continue
		}
		seen[v] = true
		roots = append(roots, v)
	}
	return roots, nil
}

// ListRoots samples roots for a graph held only as an edge list (a
// cluster's machines each build a block of it), and returns the degree
// lookup it sampled against for the TEPS accounting.
func ListRoots(list *edgelist.List, count int, seed uint64) ([]int64, func(int64) int64, error) {
	deg := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	degree := func(v int64) int64 { return deg[v] }
	roots, err := SampleRoots(list.NumVertices, count, seed, degree)
	return roots, degree, err
}

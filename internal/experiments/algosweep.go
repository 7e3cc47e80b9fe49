package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
	"semibfs/internal/stats"
	"semibfs/internal/vp"
)

// AlgoRow is one (scenario, algorithm, cache budget) measurement of the
// vertex-program sweep.
type AlgoRow struct {
	Scenario string `json:"scenario"`
	Algo     string `json:"algo"`
	// Fraction is the cache budget as a fraction of the forward graph's
	// NVM bytes; CacheBytes is the resulting budget (0 = no cache).
	Fraction   float64 `json:"fraction"`
	CacheBytes int64   `json:"cache_bytes"`
	// TEPS is the harmonic-mean traversed-edges-per-second over the
	// sampled roots (BFS only; 0 for the iterative algorithms).
	TEPS float64 `json:"teps"`
	// EdgesPerSec is examined edges per virtual second over the whole
	// run — the throughput figure that is comparable across algorithms.
	EdgesPerSec float64 `json:"edges_per_sec"`
	// Iterations / IterationsPerSec describe the iterative algorithms'
	// sweep structure (for BFS, Iterations is the level count of the
	// last root).
	Iterations       int     `json:"iterations"`
	IterationsPerSec float64 `json:"iterations_per_sec"`
	Converged        bool    `json:"converged"`
	// StateBytes is the packed size of the program's per-vertex result
	// state (the state codec's delta+varint or raw-float snapshot).
	StateBytes int64   `json:"state_bytes"`
	HitRate    float64 `json:"hit_rate"`
	// NVMReads counts post-cache device requests (the mirror layer's
	// read total for this run).
	NVMReads int64   `json:"nvm_reads"`
	Seconds  float64 `json:"seconds"`
}

// AlgoSweep measures per-algorithm throughput versus cache budget for
// both NVM device profiles, with every algorithm running through the full
// storage stack: compressed mirrored checksummed forward values, partial
// backward offload, and the swept page cache on top. BFS reports
// harmonic-mean TEPS over the Graph500 root sample; connected components
// and PageRank run once (their work is root-independent) and report
// iteration and edge throughput. Every row's result is validated against
// a DRAM-only reference computed once per algorithm: parent trees and
// component labels must match exactly, PageRank ranks bit-identically —
// the framework's determinism means the stack can change only the clock.
func AlgoSweep(opts Options) ([]AlgoRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()

	vcfg := vp.Config{Config: sweepBFSConfig(opts, bfs.ModeHybrid)}
	prOpts := vp.PageRankOptions{}

	// DRAM references, computed once per algorithm.
	dramSys, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(lab.Src.NumVertices(), opts.Roots, opts.Seed, dramSys.Backward.Degree)
	if err != nil {
		return nil, err
	}
	refTrees := make(map[int64][]int64)
	var refLabels []int64
	var refRanks []float64
	{
		bfsProg := vp.NewBFS()
		eng, err := dramSys.NewEngine(bfsProg, vcfg)
		if err != nil {
			return nil, err
		}
		for _, root := range roots {
			if _, err := eng.Run(root); err != nil {
				return nil, err
			}
			refTrees[root] = append([]int64(nil), bfsProg.Tree()...)
		}
		ccProg := vp.NewComponents()
		if eng, err = dramSys.NewEngine(ccProg, vcfg); err != nil {
			return nil, err
		}
		if _, err := eng.Run(0); err != nil {
			return nil, err
		}
		refLabels = append([]int64(nil), ccProg.Labels()...)
		pr := vp.NewPageRank(degreesOf(dramSys), prOpts)
		if eng, err = dramSys.NewEngine(pr, vcfg); err != nil {
			return nil, err
		}
		if _, err := eng.Run(0); err != nil {
			return nil, err
		}
		refRanks = append([]float64(nil), pr.Ranks()...)
	}

	var rows []AlgoRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		sc.Checksums = true
		sc.Replicas = 2
		sc.Compress = true
		sc.BackwardDRAMEdgeLimit = 4
		// Anchor the budget grid to the measured forward footprint.
		probe, err := lab.System(sc, false)
		if err != nil {
			return nil, err
		}
		fwdBytes := probe.NVMForwardBytes
		for _, algo := range core.Algorithms() {
			for _, frac := range CacheFractions {
				cached := sc.WithAlgorithm(algo)
				if frac > 0 {
					cached = cached.WithCache(int64(frac*float64(fwdBytes)), CacheReadahead)
				}
				row, err := runAlgoPoint(lab, cached, vcfg, prOpts, frac, roots, refTrees, refLabels, refRanks)
				if err != nil {
					return nil, fmt.Errorf("algo sweep %s %s frac=%g: %w", base.Name, algo, frac, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// degreesOf materializes the per-vertex degree array of a system.
func degreesOf(sys *core.System) []int64 {
	deg := make([]int64, sys.Part.N)
	for v := range deg {
		deg[v] = sys.Backward.Degree(int64(v))
	}
	return deg
}

// runAlgoPoint runs one (scenario, algorithm, budget) point and validates
// it against the DRAM reference.
func runAlgoPoint(lab *Lab, sc core.Scenario, vcfg vp.Config, prOpts vp.PageRankOptions,
	frac float64, roots []int64, refTrees map[int64][]int64,
	refLabels []int64, refRanks []float64) (AlgoRow, error) {
	sys, err := lab.System(sc, false)
	if err != nil {
		return AlgoRow{}, err
	}
	prog, err := sys.NewProgram(prOpts)
	if err != nil {
		return AlgoRow{}, err
	}
	eng, err := sys.NewEngine(prog, vcfg)
	if err != nil {
		return AlgoRow{}, err
	}
	row := AlgoRow{
		Scenario:   sc.Name,
		Algo:       sc.Algorithm.String(),
		Fraction:   frac,
		CacheBytes: sc.CacheBytes,
		Converged:  true,
	}
	// BFS runs once per sampled root; the iterative programs' work is
	// root-independent, so they run once.
	isBFS := sc.Algorithm == core.AlgoBFS
	starts := []int64{0}
	var degree func(int64) int64
	if isBFS {
		starts, degree = roots, sys.Backward.Degree
	}
	var teps []float64
	var examined, hits, misses int64
	for _, start := range starts {
		res, err := eng.Run(start)
		if err != nil {
			return row, err
		}
		switch p := prog.(type) {
		case *vp.BFS:
			tree := p.Tree()
			for v, want := range refTrees[start] {
				if tree[v] != want {
					return row, fmt.Errorf("root %d: tree[%d] = %d, DRAM reference %d",
						start, v, tree[v], want)
				}
			}
			teps = appendTEPS(teps, tree, degree, res.Time)
		case *vp.Components:
			for v, l := range p.Labels() {
				if l != refLabels[v] {
					return row, fmt.Errorf("label[%d] = %d, DRAM reference %d", v, l, refLabels[v])
				}
			}
		case *vp.PageRank:
			for v, r := range p.Ranks() {
				if r != refRanks[v] {
					return row, fmt.Errorf("rank[%d] = %v, DRAM reference %v (not bit-identical)",
						v, r, refRanks[v])
				}
			}
			row.Converged = res.Converged
		}
		examined += res.ExaminedPush + res.ExaminedPull
		row.NVMReads += res.Layers.Get("mirror", "reads")
		hits += res.Cache.Hits
		misses += res.Cache.Misses
		row.Seconds += res.Time.Seconds()
		row.Iterations = res.Iterations
	}
	if isBFS {
		row.TEPS = stats.Summarize(teps).HarmonicMean
	}
	if row.Seconds > 0 {
		row.EdgesPerSec = float64(examined) / row.Seconds
		if !isBFS {
			row.IterationsPerSec = float64(row.Iterations) / row.Seconds
		}
	}
	if hits+misses > 0 {
		row.HitRate = float64(hits) / float64(hits+misses)
	}
	row.StateBytes = vp.StateBytes(prog)
	return row, nil
}

var algoEntry = flat[AlgoRow]{
	name: "algo", doc: "algorithm sweep: BFS / components / PageRank vertex programs through the full stack vs cache budget",
	run:   AlgoSweep,
	title: "Algorithm sweep: vertex programs through the full NVM stack vs cache budget",
	cols: []Col[AlgoRow]{
		{"scenario", "scenario", func(r AlgoRow) any { return r.Scenario }},
		{"algo", "algo", func(r AlgoRow) any { return r.Algo }},
		{"fraction", "budget", func(r AlgoRow) any { return Budget(r.Fraction) }},
		{"cache_bytes", "", func(r AlgoRow) any { return r.CacheBytes }},
		{"teps", "TEPS", func(r AlgoRow) any { return TEPS(r.TEPS) }},
		{"edges_per_sec", "edges/s", func(r AlgoRow) any { return TEPS(r.EdgesPerSec) }},
		{"iterations", "iters", func(r AlgoRow) any { return r.Iterations }},
		{"iterations_per_sec", "iters/s", func(r AlgoRow) any { return r.IterationsPerSec }},
		{"converged", "", func(r AlgoRow) any { return r.Converged }},
		{"state_bytes", "state", func(r AlgoRow) any { return Bytes(r.StateBytes) }},
		{"hit_rate", "hit%", func(r AlgoRow) any { return Frac(r.HitRate) }},
		{"nvm_reads", "", func(r AlgoRow) any { return r.NVMReads }},
		{"seconds", "", func(r AlgoRow) any { return r.Seconds }},
	},
	// Best BFS TEPS through the full stack per device, and the best
	// PageRank iteration throughput on the primary device.
	headline: func(rows []AlgoRow) []Metric {
		best := map[string]float64{}
		for _, r := range rows {
			rate := r.IterationsPerSec
			if r.Algo == core.AlgoBFS.String() {
				rate = r.TEPS
			}
			k := r.Scenario + "/" + r.Algo
			best[k] = max(best[k], rate)
		}
		return []Metric{
			{"pcie-bfs-MTEPS", best[core.ScenarioPCIeFlash.Name+"/"+core.AlgoBFS.String()] / 1e6},
			{"ssd-bfs-MTEPS", best[core.ScenarioSSD.Name+"/"+core.AlgoBFS.String()] / 1e6},
			{"pcie-pagerank-iters-per-s", best[core.ScenarioPCIeFlash.Name+"/"+core.AlgoPageRank.String()]},
		}
	},
}.entry()

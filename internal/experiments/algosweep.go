package experiments

import (
	"bytes"
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
	Scenario string `json:"scenario" text:"scenario"`
	Algo     string `json:"algo" text:"algo"`
	// Fraction is the cache budget as a fraction of the forward graph's
	// NVM bytes; CacheBytes is the resulting budget (0 = no cache).
	Fraction   float64 `json:"fraction" text:"budget,budget"`
	CacheBytes int64   `json:"cache_bytes"`
	// TEPS is the harmonic-mean traversed-edges-per-second over the
	// sampled roots (BFS only; 0 for the iterative algorithms).
	TEPS float64 `json:"teps" text:"TEPS,teps"`
	// EdgesPerSec is examined edges per virtual second over the whole
	// run — the throughput figure that is comparable across algorithms.
	EdgesPerSec float64 `json:"edges_per_sec" text:"edges/s,teps"`
	// Iterations / IterationsPerSec describe the iterative algorithms'
	// sweep structure (for BFS, Iterations is the level count of the
	// last root).
	Iterations       int     `json:"iterations" text:"iters"`
	IterationsPerSec float64 `json:"iterations_per_sec" text:"iters/s"`
	Converged        bool    `json:"converged"`
	// StateBytes is the packed size of the program's per-vertex result
	// state (the state codec's delta+varint or raw-float snapshot).
	StateBytes int64   `json:"state_bytes" text:"state,bytes"`
	HitRate    float64 `json:"hit_rate" text:"hit%,frac"`
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
	return algoSweep(lab)
}

// programRun names one run of a program: the algorithm and its start.
type programRun struct {
	algo  vp.Algorithm
	start int64
}

// algoSweep runs the sweep over lab's instance. A (device, budget) point is
// one lab system, and all three programs take turns on it.
func algoSweep(lab *Lab) ([]AlgoRow, error) {
	vcfg := vp.Config{Config: sweepBFSConfig(bfs.ModeHybrid)}
	dramSys, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		return nil, err
	}
	roots, err := graph500.SampleRoots(lab.Src.NumVertices(), lab.Opts.Roots, lab.Opts.Seed, dramSys.Backward.Degree)
	if err != nil {
		return nil, err
	}
	// Every point's system holds the same graph, so one table prices them all.
	degrees := bfs.DegreeTable(lab.Src.NumVertices(), dramSys.Backward.Degree)
	// The DRAM references: every run's packed result state.
	ref := make(map[programRun][]byte)
	for _, algo := range vp.Algorithms() {
		err := graph500.RunProgram(dramSys, algo, vcfg, vp.PageRankOptions{}, programStarts(algo, roots),
			func(start int64, prog vp.Program, _ *vp.Result) error {
				ref[programRun{algo, start}] = prog.(vp.StateSnapshotter).PackState(nil)
				return nil
			})
		if err != nil {
			return nil, err
		}
	}

	var rows []AlgoRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		sc.Checksums = true
		sc.Replicas = 2
		sc.Compress = true
		sc.BackwardDRAMEdgeLimit = 4
		for _, algo := range vp.Algorithms() {
			for _, frac := range CacheFractions {
				cached, err := lab.withCacheFraction(sc, frac)
				if err != nil {
					return nil, err
				}
				sys, err := lab.System(cached, false)
				if err != nil {
					return nil, err
				}
				row, err := runAlgoPoint(sys, algo, vcfg, roots, degrees, ref)
				if err != nil {
					return nil, fmt.Errorf("algo sweep %s %s frac=%g: %w", base.Name, algo, frac, err)
				}
				row.Fraction = frac
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// programStarts returns where algo's runs start: BFS from every sampled
// root; the iterative programs' work is root-independent, so they run once.
func programStarts(algo vp.Algorithm, roots []int64) []int64 {
	if algo == vp.AlgoBFS {
		return roots
	}
	return []int64{0}
}

// runAlgoPoint runs algo on one (device, budget) point's system and checks
// every run's result state against the DRAM reference, byte for byte.
func runAlgoPoint(sys *core.System, algo vp.Algorithm, vcfg vp.Config, roots, degrees []int64,
	ref map[programRun][]byte) (AlgoRow, error) {
	row := AlgoRow{
		Scenario:   sys.Scenario.Name,
		Algo:       algo.String(),
		CacheBytes: sys.Scenario.CacheBytes,
		Converged:  true,
	}
	var teps []float64
	var examined, hits, misses int64
	err := graph500.RunProgram(sys, algo, vcfg, vp.PageRankOptions{}, programStarts(algo, roots),
		func(start int64, prog vp.Program, res *vp.Result) error {
			state := prog.(vp.StateSnapshotter).PackState(nil)
			if !bytes.Equal(state, ref[programRun{algo, start}]) {
				return fmt.Errorf("start %d: result state differs from the DRAM reference", start)
			}
			row.StateBytes = int64(len(state))
			if b, ok := prog.(*vp.BFS); ok {
				teps = appendTEPS(teps, b.Tree(), degrees, res.Time)
			}
			if algo == vp.AlgoPageRank {
				row.Converged = res.Converged
			}
			examined += res.ExaminedPush + res.ExaminedPull
			row.NVMReads += res.Layers.Get("mirror", "reads")
			cs := res.Layers.CacheView()
			hits += cs.Hits
			misses += cs.Misses
			row.Seconds += res.Time.Seconds()
			row.Iterations = res.Iterations
			return nil
		})
	if err != nil {
		return row, err
	}
	if algo == vp.AlgoBFS {
		row.TEPS = stats.Summarize(teps).HarmonicMean
	}
	if row.Seconds > 0 {
		row.EdgesPerSec = float64(examined) / row.Seconds
		if algo != vp.AlgoBFS {
			row.IterationsPerSec = float64(row.Iterations) / row.Seconds
		}
	}
	if hits+misses > 0 {
		row.HitRate = float64(hits) / float64(hits+misses)
	}
	return row, nil
}

var algoEntry = flat[AlgoRow]{
	name: "algo", doc: "algorithm sweep: BFS / components / PageRank vertex programs through the full stack vs cache budget",
	run:   AlgoSweep,
	title: "Algorithm sweep: vertex programs through the full NVM stack vs cache budget",
	// Best BFS TEPS through the full stack per device, and the best
	// PageRank iteration throughput on the primary device.
	headline: func(rows []AlgoRow) []Metric {
		best := map[string]float64{}
		for _, r := range rows {
			rate := r.IterationsPerSec
			if r.Algo == vp.AlgoBFS.String() {
				rate = r.TEPS
			}
			k := r.Scenario + "/" + r.Algo
			best[k] = max(best[k], rate)
		}
		return []Metric{
			{"pcie-bfs-MTEPS", best[core.ScenarioPCIeFlash.Name+"/"+vp.AlgoBFS.String()] / 1e6},
			{"ssd-bfs-MTEPS", best[core.ScenarioSSD.Name+"/"+vp.AlgoBFS.String()] / 1e6},
			{"pcie-pagerank-iters-per-s", best[core.ScenarioPCIeFlash.Name+"/"+vp.AlgoPageRank.String()]},
		}
	},
}.entry()

package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
)

// IOQueueDepths is the async-pipeline grid of the I/O sweep: the
// synchronous baseline, a modest queue, and a deep one (past which the
// device's channel parallelism, not the queue, is the bottleneck).
var IOQueueDepths = []int{0, 8, 32}

const (
	// IOCacheFraction is the page-cache budget of every I/O sweep row,
	// as a fraction of the *raw* forward graph's NVM footprint — the
	// same DRAM spend whether or not the row compresses, so the sweep
	// compares formats, not budgets.
	IOCacheFraction = 1.0 / 8
	// IOFrontierPrefetch caps per-chunk frontier readahead whenever a
	// row runs with a queue (0 would leave the pipeline demand-only).
	IOFrontierPrefetch = 64
)

// IORow is one (scenario, mode, compress, queue depth) measurement of the
// I/O sweep.
type IORow struct {
	Scenario   string  `json:"scenario" text:"scenario"`
	Mode       string  `json:"mode" text:"mode"`
	Compress   bool    `json:"compress" text:"cmp"`
	QueueDepth int     `json:"queue_depth" text:"qd"`
	Prefetch   int     `json:"prefetch" text:"pf"`
	CacheBytes int64   `json:"cache_bytes"`
	TEPS       float64 `json:"teps" text:"TEPS,teps"`
	// Speedup is TEPS over the scenario+mode's raw synchronous row
	// (compress off, queue depth 0) — the row the tentpole is judged by.
	Speedup float64 `json:"speedup" text:"speedup,times"`
	// CompressionRatio is raw adjacency bytes over stored bytes (1 for
	// uncompressed rows).
	CompressionRatio float64 `json:"compression_ratio" text:"ratio,times"`
	HitRate          float64 `json:"hit_rate" text:"hit%,frac"`
	NVMReads         int64   `json:"nvm_reads" text:"NVM reads"`
	NVMReadBytes     int64   `json:"nvm_read_bytes" text:"NVM read,bytes"`
	// DemandRuns / PrefetchBlocks are the async layer's coalescing
	// counters (0 for synchronous rows).
	DemandRuns     int64 `json:"demand_runs"`
	PrefetchBlocks int64 `json:"prefetch_blocks"`
}

// IOSweep measures TEPS versus queue depth and adjacency compression on
// both NVM device profiles, in hybrid and pure top-down modes. Every row
// gets the same DRAM cache budget (IOCacheFraction of the raw forward
// footprint), so the movement along each axis isolates one mechanism:
// compression shrinks the bytes a request moves (and effectively enlarges
// the cache, which holds more adjacency per page), while the async
// pipeline coalesces block fills into large requests and overlaps them
// with expansion via frontier prefetch. TEPS is the harmonic mean over
// roots and profiles are unscaled, both for the reasons CacheSweep
// documents. The expected shape: the SATA SSD — low channel parallelism,
// bandwidth-poor — gains most from both axes, narrowing the PCIe/SATA gap
// the paper's Figure 10 shows for synchronous 4 KiB requests.
func IOSweep(opts Options) ([]IORow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []IORow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		cached, err := lab.withCacheFraction(lab.scenario(base, true), IOCacheFraction)
		if err != nil {
			return nil, err
		}
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly} {
			cfg := sweepBFSConfig(mode)
			var baseTEPS float64
			for _, compress := range []bool{false, true} {
				for _, qd := range IOQueueDepths {
					pf := 0
					if qd > 0 {
						pf = IOFrontierPrefetch
					}
					res, err := lab.Run(cached.WithIO(compress, qd, pf), cfg, false, false)
					if err != nil {
						return nil, fmt.Errorf("io sweep %s %s cmp=%v qd=%d: %w",
							base.Name, mode, compress, qd, err)
					}
					teps := res.TEPS.HarmonicMean
					if !compress && qd == 0 {
						baseTEPS = teps
					}
					speedup := 0.0
					if baseTEPS > 0 {
						speedup = teps / baseTEPS
					}
					rows = append(rows, IORow{
						Scenario:         base.Name,
						Mode:             mode.String(),
						Compress:         compress,
						QueueDepth:       qd,
						Prefetch:         pf,
						CacheBytes:       cached.CacheBytes,
						TEPS:             teps,
						Speedup:          speedup,
						CompressionRatio: res.CompressionRatio,
						HitRate:          res.Layers.CacheView().HitRate(),
						NVMReads:         res.DeviceStats.Reads,
						NVMReadBytes:     res.DeviceStats.ReadBytes,
						DemandRuns:       res.Layers.Get("async", "demand_runs"),
						PrefetchBlocks:   res.Layers.Get("async", "prefetch_blocks"),
					})
				}
			}
		}
	}
	return rows, nil
}

var ioEntry = flat[IORow]{
	name: "io", doc: "I/O sweep: TEPS vs async queue depth x adjacency compression at a fixed cache budget",
	run:   IOSweep,
	title: "I/O sweep: harmonic-mean TEPS vs queue depth x compression (cache = 1/8 raw forward bytes)",
	// The rows the tentpole is judged by: the adjacency compression ratio
	// and, per device, the best compressed+async hybrid row over the raw
	// synchronous baseline.
	headline: func(rows []IORow) []Metric {
		best := map[string]float64{}
		var ratio float64
		for _, r := range rows {
			if !r.Compress {
				continue
			}
			ratio = max(ratio, r.CompressionRatio)
			if r.Mode == "hybrid" && r.QueueDepth > 0 {
				best[r.Scenario] = max(best[r.Scenario], r.Speedup)
			}
		}
		return []Metric{
			{"compression-ratio-x", ratio},
			{"pcie-hybrid-cmp-async-speedup-x", best[core.ScenarioPCIeFlash.Name]},
			{"ssd-hybrid-cmp-async-speedup-x", best[core.ScenarioSSD.Name]},
		}
	},
}.entry()

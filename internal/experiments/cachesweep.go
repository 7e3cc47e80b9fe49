package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
)

// CacheFractions is the budget grid of the cache sweep, as fractions of
// the forward graph's NVM footprint: no cache, then 1/32, 1/8 and 1/2 of
// the graph. The paper's premise is that the forward graph does not fit
// in DRAM — so the interesting budgets are the small ones, where only the
// hot blocks (index pages, hub adjacencies) stay resident.
var CacheFractions = []float64{0, 1.0 / 32, 1.0 / 8, 1.0 / 2}

// CacheReadahead is the value-store readahead depth used whenever the
// sweep enables the cache.
const CacheReadahead = 4

// withCacheFraction returns sc with a page cache of frac times its forward
// graph's NVM footprint, read off sc's own system (the sweeps anchor their
// budgets to the measured graph), and CacheReadahead; frac 0 is sc itself.
func (l *Lab) withCacheFraction(sc core.Scenario, frac float64) (core.Scenario, error) {
	if frac == 0 {
		return sc, nil
	}
	probe, err := l.System(sc, false)
	if err != nil {
		return sc, err
	}
	return sc.WithCache(int64(frac*float64(probe.NVMForwardBytes)), CacheReadahead), nil
}

// CacheSweepAlpha is the top-down -> bottom-up threshold the sweep uses
// (beta = 10*alpha). The headline alpha of 1e4 is tuned for SCALE 27,
// where N/alpha leaves several top-down levels; at reproduction scales
// N/1e4 is below one vertex and hybrid abandons top-down after level 0,
// leaving the forward graph — the thing being cached — unread. Alpha=64
// keeps the switch at the same qualitative point (frontier ~ N/64) at
// any scale.
const CacheSweepAlpha = 64

// sweepBFSConfig is the switching configuration every device-behaviour
// sweep shares: CacheSweepAlpha, beta = 10*alpha, in the given mode.
func sweepBFSConfig(mode bfs.Mode) bfs.Config {
	cfg := defaultBFSConfig()
	cfg.Mode = mode
	cfg.Alpha, cfg.Beta = CacheSweepAlpha, 10*CacheSweepAlpha
	return cfg
}

// CacheRow is one (scenario, mode, budget) measurement of the cache sweep.
type CacheRow struct {
	Scenario string `json:"scenario" text:"scenario"`
	Mode     string `json:"mode" text:"mode"`
	// Fraction is the cache budget as a fraction of the forward graph's
	// NVM bytes; CacheBytes is the resulting budget (0 = no cache).
	Fraction   float64 `json:"fraction" text:"budget,budget"`
	CacheBytes int64   `json:"cache_bytes" text:"cache,bytes"`
	Readahead  int     `json:"readahead"`
	TEPS       float64 `json:"teps" text:"TEPS,teps"`
	HitRate    float64 `json:"hit_rate" text:"hit%,frac"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions" text:"evictions"`
	Prefetches int64   `json:"prefetches"`
	// NVMReads is the device's request count over the benchmark — the
	// traffic the cache absorbed is visible as the drop against row 0.
	NVMReads int64 `json:"nvm_reads" text:"NVM reads"`
}

// CacheSweep measures TEPS and cache effectiveness versus cache budget
// for both NVM scenarios, in hybrid and pure top-down modes. TEPS is the
// harmonic mean over roots — the Graph500 aggregate — because it weights
// each root by its time: the cache persists across roots, so its benefit
// shows up in the total time of the root set, which a per-root median
// hides (the median root can be a small component with little reuse).
// Device profiles are unscaled, like the other device-behaviour
// experiments: cache hits trade request *latency* for DRAM streaming, so
// under scale-equivalent latency (which shrinks latency 2^(27-s)x but
// leaves the 4 KiB fill transfer at full cost) a tiny instance sees the
// fill cost without the latency it saves. The expected shape: top-down
// gains most (it reads every frontier adjacency from NVM), while hybrid
// gains on its top-down levels and keeps its bottom-up levels unchanged —
// both strictly improve once the budget holds the hot block set.
func CacheSweep(opts Options) ([]CacheRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []CacheRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly} {
			cfg := sweepBFSConfig(mode)
			for _, frac := range CacheFractions {
				cached, err := lab.withCacheFraction(sc, frac)
				if err != nil {
					return nil, err
				}
				res, err := lab.Run(cached, cfg, false, false)
				if err != nil {
					return nil, fmt.Errorf("cache sweep %s %s frac=%g: %w",
						base.Name, mode, frac, err)
				}
				cs := res.Layers.CacheView()
				rows = append(rows, CacheRow{
					Scenario:   base.Name,
					Mode:       mode.String(),
					Fraction:   frac,
					CacheBytes: cached.CacheBytes,
					Readahead:  cached.ReadaheadBlocks,
					TEPS:       res.TEPS.HarmonicMean,
					HitRate:    cs.HitRate(),
					Hits:       cs.Hits,
					Misses:     cs.Misses,
					Evictions:  cs.Evictions,
					Prefetches: cs.Prefetches,
					NVMReads:   res.DeviceStats.Reads,
				})
			}
		}
	}
	return rows, nil
}

var cacheEntry = flat[CacheRow]{
	name: "cache", doc: "cache sweep: TEPS and hit rate vs forward-graph page-cache budget, hybrid and top-down",
	run:   CacheSweep,
	title: "Cache sweep: harmonic-mean TEPS vs forward-graph page-cache budget",
}.entry()

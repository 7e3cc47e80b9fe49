package experiments

import (
	"fmt"
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/nvm"
	"semibfs/internal/power"
)

// Fig11Point is one top-down level's degradation measurement.
type Fig11Point struct {
	Root      int64   `json:"root"`
	Level     int     `json:"level"`
	AvgDegree float64 `json:"avg_degree"`
	// Ratio is the level's virtual time on the NVM scenario divided by
	// the same root's same level on DRAM-only.
	Ratio float64 `json:"ratio"`
}

// Fig11Result is one NVM scenario's cloud of degradation points.
type Fig11Result struct {
	Scenario string       `json:"scenario"`
	Points   []Fig11Point `json:"points"`
	Min      float64      `json:"min_ratio"`
	Max      float64      `json:"max_ratio"`
}

// Fig11 reproduces the degradation-vs-degree analysis: with the paper's
// alpha=1e4, beta=10*alpha setting, every top-down level of every root is
// timed on DRAM-only and on each NVM scenario, and the per-level slowdown
// is plotted against the level's average frontier degree. Device latencies
// are left unscaled: this is a device analysis, and the slowdown blow-up
// toward degree 1 is precisely the effect under study.
func Fig11(opts Options) ([]Fig11Result, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	cfg := bfs.Config{Alpha: 1e4, Beta: 1e5}
	base, err := lab.Run(core.ScenarioDRAMOnly, cfg, true, false)
	if err != nil {
		return nil, err
	}
	var out []Fig11Result
	for _, sc := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		res, err := lab.Run(lab.scenario(sc, true), cfg, true, false)
		if err != nil {
			return nil, err
		}
		r := Fig11Result{Scenario: sc.Name, Min: -1}
		for i, rr := range res.PerRoot {
			if i >= len(base.PerRoot) || base.PerRoot[i].Root != rr.Root {
				return nil, fmt.Errorf("fig11: root mismatch at iteration %d", i)
			}
			bl := base.PerRoot[i].Levels
			for j, l := range rr.Levels {
				if l.Direction != bfs.TopDown || j >= len(bl) {
					continue
				}
				b := bl[j]
				if b.Direction != bfs.TopDown || b.Time <= 0 {
					// The traversal is identical, so levels line
					// up; skip defensively if they do not.
					continue
				}
				p := Fig11Point{
					Root:      rr.Root,
					Level:     j,
					AvgDegree: l.AvgDegree(),
					Ratio:     float64(l.Time) / float64(b.Time),
				}
				r.Points = append(r.Points, p)
				if p.Ratio > r.Max {
					r.Max = p.Ratio
				}
				if r.Min < 0 || p.Ratio < r.Min {
					r.Min = p.Ratio
				}
			}
		}
		sort.Slice(r.Points, func(a, b int) bool {
			return r.Points[a].AvgDegree < r.Points[b].AvgDegree
		})
		out = append(out, r)
	}
	return out, nil
}

// fig11Bucket is one decade of average frontier degree in one scenario's
// degradation cloud — the resolution at which the text and CSV renderings
// summarize Figure 11 (the JSON rows keep every point).
type fig11Bucket struct {
	scenario string
	lo       float64 // degrees in [lo, 10*lo); below 10 all land in [1, 10)
	levels   int
	sum      float64
}

func fig11Buckets(results []Fig11Result) []fig11Bucket {
	var out []fig11Bucket
	for _, r := range results {
		// Points are sorted by degree, so each decade is one run.
		for _, p := range r.Points {
			lo := 1.0
			for p.AvgDegree >= 10*lo {
				lo *= 10
			}
			if n := len(out); n == 0 || out[n-1].scenario != r.Scenario || out[n-1].lo != lo {
				out = append(out, fig11Bucket{scenario: r.Scenario, lo: lo})
			}
			out[len(out)-1].levels++
			out[len(out)-1].sum += p.Ratio
		}
	}
	return out
}

var fig11Entry = Entry{
	Name: "fig11", Doc: "Figure 11: per-level top-down slowdown vs DRAM-only against average frontier degree",
	Run: func(opts Options) (Result, error) {
		results, err := Fig11(opts)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Rows: results,
			Table: tabulate("Figure 11: top-down slowdown vs DRAM-only, by decade of average frontier degree\n"+
				"(paper: ioDrive2 max 5758.5x / min 1.2x; SSD max 123482.6x / min 2.8x at SCALE 27)",
				fig11Buckets(results), []Col[fig11Bucket]{
					{"scenario", "scenario", func(b fig11Bucket) any { return b.scenario }},
					{"avg_degree_from", "avg degree >=", func(b fig11Bucket) any { return b.lo }},
					{"avg_degree_below", "<", func(b fig11Bucket) any { return 10 * b.lo }},
					{"levels", "levels", func(b fig11Bucket) any { return b.levels }},
					{"mean_ratio", "mean ratio", func(b fig11Bucket) any { return Times(b.sum / float64(b.levels)) }},
				}),
			Headline: []Metric{
				{"pcie-min-slowdown-x", results[0].Min},
				{"pcie-max-slowdown-x", results[0].Max},
				{"ssd-min-slowdown-x", results[1].Min},
				{"ssd-max-slowdown-x", results[1].Max},
			},
		}, nil
	},
}

// DeviceUsage is one NVM scenario's iostat-style measurement over the full
// multi-root benchmark run (Figures 12 and 13).
type DeviceUsage struct {
	Scenario string            `json:"scenario"`
	Stats    nvm.Stats         `json:"stats"`
	Series   []nvm.SeriesPoint `json:"series"`
}

// Fig12And13 runs the benchmark on both NVM scenarios with per-bin device
// recording and returns the avgqu-sz (Figure 12) and avgrq-sz (Figure 13)
// data. Unscaled device latencies, as in Figure 11.
func Fig12And13(opts Options) ([]DeviceUsage, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	cfg := bfs.Config{Alpha: 1e4, Beta: 1e5}
	var out []DeviceUsage
	for _, sc := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		res, err := lab.Run(lab.scenario(sc, true), cfg, false, true)
		if err != nil {
			return nil, err
		}
		out = append(out, DeviceUsage{
			Scenario: sc.Name,
			Stats:    res.DeviceStats,
			Series:   res.DeviceSeries,
		})
	}
	return out, nil
}

// The table is the iostat summary the paper quotes; the per-bin series
// behind the two figures ride in the JSON rows.
var fig12And13Entry = flat[DeviceUsage]{
	name: "fig12-13", doc: "Figures 12/13: iostat-style NVM queue length (avgqu-sz) and request size (avgrq-sz) during BFS",
	run: Fig12And13,
	title: "Figures 12/13: NVM request queue length and size during BFS\n" +
		"(paper averages: avgqu-sz 36.1 ioDrive2 / 56.1 SSD; avgrq-sz 22.6 / 22.7 sectors)",
	cols: []Col[DeviceUsage]{
		{"scenario", "scenario", func(u DeviceUsage) any { return u.Scenario }},
		{"reads", "reads", func(u DeviceUsage) any { return u.Stats.Reads }},
		{"avgqu_sz", "avgqu-sz", func(u DeviceUsage) any { return u.Stats.AvgQueueSize }},
		{"avgrq_sz", "avgrq-sz", func(u DeviceUsage) any { return u.Stats.AvgRequestSectors }},
		{"await_ns", "await", func(u DeviceUsage) any { return u.Stats.AvgWait + u.Stats.AvgService }},
		{"utilization", "util", func(u DeviceUsage) any { return Frac(u.Stats.Utilization) }},
		{"series_bins", "series bins", func(u DeviceUsage) any { return len(u.Series) }},
	},
	headline: func(usages []DeviceUsage) []Metric {
		return []Metric{
			{"pcie-avgqu-sz", usages[0].Stats.AvgQueueSize},
			{"ssd-avgqu-sz", usages[1].Stats.AvgQueueSize},
			{"pcie-avgrq-sectors", usages[0].Stats.AvgRequestSectors},
			{"ssd-avgrq-sectors", usages[1].Stats.AvgRequestSectors},
		}
	},
}.entry()

// Fig14Row is one per-vertex DRAM edge cap measurement.
type Fig14Row struct {
	Limit int `json:"keep_edges"`
	// DRAMSizeReductionPct is the backward graph's DRAM savings
	// relative to keeping it fully resident.
	DRAMSizeReductionPct float64 `json:"bwd_dram_reduction_pct"`
	// NVMAccessPct is the fraction of bottom-up neighbor examinations
	// served from NVM.
	NVMAccessPct float64 `json:"nvm_access_pct"`
	TEPS         float64 `json:"teps"`
}

// Fig14Limits are the per-vertex caps the paper evaluates.
var Fig14Limits = []int{2, 4, 8, 16, 32}

// Fig14 measures the backward-graph offloading estimate of Section VI-E
// for real: the backward graph keeps only the first k (hubs-first)
// neighbors of each vertex in DRAM, and the run counts how many bottom-up
// edge examinations had to touch NVM.
func Fig14(opts Options) ([]Fig14Row, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	cfg := bfs.Config{Alpha: 1e4, Beta: 1e5}
	// Full-DRAM backward bytes for the reduction baseline.
	fullSys, err := lab.System(lab.scenario(core.ScenarioPCIeFlash, false), false)
	if err != nil {
		return nil, err
	}
	fullBwd := fullSys.DRAMBackwardBytes + fullSys.NVMBackwardBytes

	var rows []Fig14Row
	for _, k := range Fig14Limits {
		sc := lab.scenario(core.ScenarioPCIeFlash, false)
		sc.BackwardDRAMEdgeLimit = k
		res, err := lab.Run(sc, cfg, false, false)
		if err != nil {
			return nil, err
		}
		row := Fig14Row{Limit: k, TEPS: res.MedianTEPS()}
		sys, err := lab.System(sc, false)
		if err != nil {
			return nil, err
		}
		bwdDRAM := sys.DRAMBackwardBytes
		if fullBwd > 0 {
			row.DRAMSizeReductionPct = 100 * (1 - float64(bwdDRAM)/float64(fullBwd))
		}
		total := res.BackwardDRAMScans + res.BackwardNVMScans
		if total > 0 {
			row.NVMAccessPct = 100 * float64(res.BackwardNVMScans) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

var fig14Entry = flat[Fig14Row]{
	name: "fig14", doc: "Figure 14: backward-graph offloading vs per-vertex DRAM edge cap k",
	run: Fig14,
	title: "Figure 14: backward graph (BG) offloading vs DRAM edge cap k\n" +
		"(paper: k=2 -> 38.2% of accesses on NVM; k=32 -> 0.7%)",
	cols: []Col[Fig14Row]{
		{"keep_edges", "k", func(r Fig14Row) any { return r.Limit }},
		{"bwd_dram_reduction_pct", "BG DRAM reduction", func(r Fig14Row) any { return Pct(r.DRAMSizeReductionPct) }},
		{"nvm_access_pct", "NVM access ratio", func(r Fig14Row) any { return Pct(r.NVMAccessPct) }},
		{"teps", "TEPS", func(r Fig14Row) any { return TEPS(r.TEPS) }},
	},
	headline: func(rows []Fig14Row) []Metric {
		return []Metric{
			{"k2-nvm-access-pct", rows[0].NVMAccessPct},
			{"k32-nvm-access-pct", rows[len(rows)-1].NVMAccessPct},
		}
	},
}.entry()

// GreenRow is the Green Graph500 efficiency estimate.
type GreenRow struct {
	Scenario  string  `json:"scenario"`
	TEPS      float64 `json:"teps"`
	Watts     float64 `json:"watts"`
	MTEPSPerW float64 `json:"mteps_per_watt"`
}

// Green evaluates the power model over each scenario's best headline
// result — the paper's 4.35 MTEPS/W entry.
func Green(opts Options) ([]GreenRow, error) {
	rows, err := Headline(opts)
	if err != nil {
		return nil, err
	}
	model := power.DefaultModel
	var out []GreenRow
	for _, r := range rows {
		cfg := power.Config{
			Sockets: topology().Nodes,
			DRAMGiB: float64(r.DRAMBytes) / float64(core.GiB),
		}
		// The paper's Green Graph500 machine carries substantial
		// DRAM regardless of graph placement; use the scenario's
		// nominal capacity as the installed memory.
		for _, sc := range core.Scenarios() {
			if sc.Name == r.Scenario {
				cfg.DRAMGiB = float64(sc.DRAMCapacity) / float64(core.GiB)
				if sc.HasNVM() {
					cfg.NVMDevices = 1
					cfg.NVMDutyCycle = 0.3
				}
			}
		}
		rep, err := model.Evaluate(r.TEPS, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, GreenRow{
			Scenario:  r.Scenario,
			TEPS:      r.TEPS,
			Watts:     rep.Watts,
			MTEPSPerW: rep.MTEPSPerW,
		})
	}
	return out, nil
}

var greenEntry = flat[GreenRow]{
	name: "green", doc: "Green Graph500 estimate: the power model over each scenario's best result (4.35 MTEPS/W)",
	run:   Green,
	title: "Green Graph500 estimate (paper: 4.35 MTEPS/W on a 4-way 500 GB + 4 TB NVM system)",
	cols: []Col[GreenRow]{
		{"scenario", "scenario", func(r GreenRow) any { return r.Scenario }},
		{"teps", "TEPS", func(r GreenRow) any { return TEPS(r.TEPS) }},
		{"watts", "watts", func(r GreenRow) any { return r.Watts }},
		{"mteps_per_watt", "MTEPS/W", func(r GreenRow) any { return r.MTEPSPerW }},
	},
	headline: func(rows []GreenRow) []Metric {
		return []Metric{{"pcie-MTEPS-per-W", rows[1].MTEPSPerW}}
	},
}.entry()

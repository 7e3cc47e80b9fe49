package experiments

import (
	"fmt"
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/nvm"
	"semibfs/internal/power"
	"semibfs/internal/vtime"
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
	cfg := defaultBFSConfig()
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
// summarize Figure 11 (the JSON rows keep every point). Degrees below 10
// all land in [1, 10).
type fig11Bucket struct {
	Scenario  string  `json:"scenario" text:"scenario"`
	From      float64 `json:"avg_degree_from" text:"avg degree >="`
	Below     float64 `json:"avg_degree_below" text:"<"`
	Levels    int     `json:"levels" text:"levels"`
	MeanRatio float64 `json:"mean_ratio" text:"mean ratio,times"`
}

func fig11Table(title string, results []Fig11Result) Table {
	var out []fig11Bucket
	for _, r := range results {
		// Points are sorted by degree, so each decade is one run.
		for _, p := range r.Points {
			lo := 1.0
			for p.AvgDegree >= 10*lo {
				lo *= 10
			}
			if n := len(out); n == 0 || out[n-1].Scenario != r.Scenario || out[n-1].From != lo {
				out = append(out, fig11Bucket{Scenario: r.Scenario, From: lo, Below: 10 * lo})
			}
			out[len(out)-1].Levels++
			out[len(out)-1].MeanRatio += p.Ratio // the sum, until divided below
		}
	}
	for i := range out {
		out[i].MeanRatio /= float64(out[i].Levels)
	}
	return rowTable(title, out)
}

var fig11Entry = flat[Fig11Result]{
	name: "fig11", doc: "Figure 11: per-level top-down slowdown vs DRAM-only against average frontier degree",
	run: Fig11,
	title: "Figure 11: top-down slowdown vs DRAM-only, by decade of average frontier degree\n" +
		"(paper: ioDrive2 max 5758.5x / min 1.2x; SSD max 123482.6x / min 2.8x at SCALE 27)",
	table: fig11Table,
	headline: func(results []Fig11Result) []Metric {
		return []Metric{
			{"pcie-min-slowdown-x", results[0].Min},
			{"pcie-max-slowdown-x", results[0].Max},
			{"ssd-min-slowdown-x", results[1].Min},
			{"ssd-max-slowdown-x", results[1].Max},
		}
	},
}.entry()

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
	cfg := defaultBFSConfig()
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

// deviceUsageRow is one scenario's iostat summary as tabulated: the
// figures' per-bin series ride in the JSON rows.
type deviceUsageRow struct {
	Scenario    string         `json:"scenario" text:"scenario"`
	Reads       int64          `json:"reads" text:"reads"`
	AvgQueue    float64        `json:"avgqu_sz" text:"avgqu-sz"`
	AvgRequest  float64        `json:"avgrq_sz" text:"avgrq-sz"`
	Await       vtime.Duration `json:"await_ns" text:"await"`
	Utilization float64        `json:"utilization" text:"util,frac"`
	SeriesBins  int            `json:"series_bins" text:"series bins"`
}

var fig12And13Entry = flat[DeviceUsage]{
	name: "fig12-13", doc: "Figures 12/13: iostat-style NVM queue length (avgqu-sz) and request size (avgrq-sz) during BFS",
	run: Fig12And13,
	title: "Figures 12/13: NVM request queue length and size during BFS\n" +
		"(paper averages: avgqu-sz 36.1 ioDrive2 / 56.1 SSD; avgrq-sz 22.6 / 22.7 sectors)",
	table: func(title string, usages []DeviceUsage) Table {
		view := make([]deviceUsageRow, len(usages))
		for i, u := range usages {
			st := u.Stats
			view[i] = deviceUsageRow{u.Scenario, st.Reads, st.AvgQueueSize, st.AvgRequestSectors,
				st.AvgWait + st.AvgService, st.Utilization, len(u.Series)}
		}
		return rowTable(title, view)
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
	Limit int `json:"keep_edges" text:"k"`
	// DRAMSizeReductionPct is the backward graph's DRAM savings
	// relative to keeping it fully resident.
	DRAMSizeReductionPct float64 `json:"bwd_dram_reduction_pct" text:"BG DRAM reduction,pct"`
	// NVMAccessPct is the fraction of bottom-up neighbor examinations
	// served from NVM.
	NVMAccessPct float64 `json:"nvm_access_pct" text:"NVM access ratio,pct"`
	TEPS         float64 `json:"teps" text:"TEPS,teps"`
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
	sc := lab.scenario(core.ScenarioPCIeFlash, false)
	var rows []Fig14Row
	for _, k := range Fig14Limits {
		part, res, err := backwardOffload(lab, sc, defaultBFSConfig(), k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig14Row{
			Limit:                k,
			DRAMSizeReductionPct: part.BwdDRAMReductionPct,
			NVMAccessPct:         part.NVMAccessPct,
			TEPS:                 res.MedianTEPS(),
		})
	}
	return rows, nil
}

var fig14Entry = flat[Fig14Row]{
	name: "fig14", doc: "Figure 14: backward-graph offloading vs per-vertex DRAM edge cap k",
	run: Fig14,
	title: "Figure 14: backward graph (BG) offloading vs DRAM edge cap k\n" +
		"(paper: k=2 -> 38.2% of accesses on NVM; k=32 -> 0.7%)",
	headline: func(rows []Fig14Row) []Metric {
		return []Metric{
			{"k2-nvm-access-pct", rows[0].NVMAccessPct},
			{"k32-nvm-access-pct", rows[len(rows)-1].NVMAccessPct},
		}
	},
}.entry()

// GreenRow is the Green Graph500 efficiency estimate.
type GreenRow struct {
	Scenario  string  `json:"scenario" text:"scenario"`
	TEPS      float64 `json:"teps" text:"TEPS,teps"`
	Watts     float64 `json:"watts" text:"watts"`
	MTEPSPerW float64 `json:"mteps_per_watt" text:"MTEPS/W"`
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
	headline: func(rows []GreenRow) []Metric {
		return []Metric{{"pcie-MTEPS-per-W", rows[1].MTEPSPerW}}
	},
}.entry()

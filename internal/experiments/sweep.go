package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
)

// defaultBFSConfig is the paper's default switching configuration.
func defaultBFSConfig(opts Options) bfs.Config {
	return bfs.Config{Alpha: 1e4, Beta: 1e5, RealWorkers: opts.Workers}
}

// SweepAlphas is the alpha grid of the Figure 7 heatmap. The paper sweeps
// 1e4..1e6 at SCALE 27; the grid here extends two decades down so the
// structure (including the scale-shifted optimum) is visible at
// reproduction scale.
var SweepAlphas = []float64{1e2, 1e3, 1e4, 1e5, 1e6}

// SweepBetaMults is the beta grid, expressed as multiples of alpha
// (beta = mult * alpha), exactly as the paper reports its settings.
var SweepBetaMults = []float64{0.1, 1, 10}

// Fig8Alphas / Fig8BetaMults are the nine (alpha, beta) points of the
// Figure 8/9 bar charts.
var (
	Fig8Alphas    = []float64{1e3, 1e4, 1e5}
	Fig8BetaMults = []float64{10, 1, 0.1}
)

// HeatCell is one (alpha, beta) measurement.
type HeatCell struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	TEPS  float64 `json:"teps"`
	// Run keeps the full result for downstream analyses.
	Run *graph500.Result `json:"-"`
}

// ScenarioSweep is one scenario's grid of measurements.
type ScenarioSweep struct {
	Scenario string     `json:"scenario"`
	Cells    []HeatCell `json:"cells"`
	Best     HeatCell   `json:"best"`
}

// Fig7 sweeps the (alpha, beta) grid for all three scenarios at the large
// scale — the parameter-space heatmaps of Figure 7.
func Fig7(opts Options) ([]ScenarioSweep, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	return sweepScenarios(lab, SweepAlphas, SweepBetaMults)
}

func sweepScenarios(lab *Lab, alphas, betaMults []float64) ([]ScenarioSweep, error) {
	var out []ScenarioSweep
	for _, base := range core.Scenarios() {
		sc := lab.scenario(base, false)
		sw := ScenarioSweep{Scenario: base.Name}
		for _, a := range alphas {
			for _, bm := range betaMults {
				res, err := lab.Run(sc, bfs.Config{Alpha: a, Beta: bm * a}, false, false)
				if err != nil {
					return nil, fmt.Errorf("%s a=%g bm=%g: %w", base.Name, a, bm, err)
				}
				cell := HeatCell{Alpha: a, Beta: bm * a, TEPS: res.MedianTEPS(), Run: res}
				sw.Cells = append(sw.Cells, cell)
				if cell.TEPS > sw.Best.TEPS {
					sw.Best = cell
				}
			}
		}
		out = append(out, sw)
	}
	return out, nil
}

// cellTable flattens the (alpha, beta) cells of Figures 7-9 into one table,
// marking each series' best cell; key names the grouping column.
func cellTable(title, key string, series []Fig8Series) Table {
	type cell struct {
		group string
		HeatCell
		best bool
	}
	var cells []cell
	for _, s := range series {
		best := 0
		for i, p := range s.Points {
			cells = append(cells, cell{group: s.Name, HeatCell: p})
			if p.TEPS > s.Points[best].TEPS {
				best = i
			}
		}
		cells[len(cells)-len(s.Points)+best].best = true
	}
	return tabulate(title, cells, []Col[cell]{
		{key, key, func(c cell) any { return c.group }},
		{"alpha", "alpha", func(c cell) any { return c.Alpha }},
		{"beta", "beta", func(c cell) any { return c.Beta }},
		{"teps", "TEPS", func(c cell) any { return TEPS(c.TEPS) }},
		{"best", "best", func(c cell) any { return c.best }},
	})
}

var fig7Entry = Entry{
	Name: "fig7", Doc: "Figure 7: median TEPS over the (alpha, beta) grid, three scenarios",
	Run: func(opts Options) (Result, error) {
		sweeps, err := Fig7(opts)
		if err != nil {
			return Result{}, err
		}
		series := make([]Fig8Series, len(sweeps))
		for i, sw := range sweeps {
			series[i] = Fig8Series{Name: sw.Scenario, Points: sw.Cells}
		}
		return Result{
			Rows:     sweeps,
			Table:    cellTable("Figure 7: median TEPS over the (alpha, beta) grid", "scenario", series),
			Headline: []Metric{{"best-DRAM-GTEPS", sweeps[0].Best.TEPS / 1e9}},
		}, nil
	},
}

// Fig8Series is one bar series of Figure 8/9: a scenario or baseline.
type Fig8Series struct {
	Name   string     `json:"name"`
	Points []HeatCell `json:"points"` // empty Alpha/Beta for the single-bar baselines
}

// Fig8 measures the large-scale BFS performance comparison: the three
// scenarios over the nine (alpha, beta) settings plus the top-down-only,
// bottom-up-only and Graph500-reference baselines on DRAM.
func Fig8(opts Options) ([]Fig8Series, error) {
	opts = opts.WithDefaults()
	return figPerformance(opts, opts.Scale, true)
}

// Fig9 is the same comparison at the small scale (the paper's SCALE 26),
// where the whole problem fits in DRAM and the PCIe scenario becomes
// competitive with DRAM-only. Baselines are omitted, as in the paper.
func Fig9(opts Options) ([]Fig8Series, error) {
	opts = opts.WithDefaults()
	return figPerformance(opts, opts.SmallScale, false)
}

func figPerformance(opts Options, scale int, baselines bool) ([]Fig8Series, error) {
	lab, err := NewLab(opts, scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	sweeps, err := sweepScenarios(lab, Fig8Alphas, Fig8BetaMults)
	if err != nil {
		return nil, err
	}
	var out []Fig8Series
	for _, sw := range sweeps {
		out = append(out, Fig8Series{Name: sw.Scenario, Points: sw.Cells})
	}
	if !baselines {
		return out, nil
	}
	for _, mode := range []bfs.Mode{bfs.ModeTopDownOnly, bfs.ModeBottomUpOnly} {
		res, err := lab.Run(core.ScenarioDRAMOnly,
			bfs.Config{Alpha: 1e4, Beta: 1e5, Mode: mode}, false, false)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Series{
			Name:   mode.String() + " (DRAM)",
			Points: []HeatCell{{TEPS: res.MedianTEPS(), Run: res}},
		})
	}
	ref, err := graph500.RunReference(lab.List, graph500.Params{
		Scale: scale, EdgeFactor: opts.EdgeFactor, Seed: opts.Seed,
		Roots: opts.Roots, ValidateRoots: 1,
		BFS: bfs.Config{RealWorkers: opts.Workers},
	})
	if err != nil {
		return nil, err
	}
	out = append(out, Fig8Series{
		Name:   "Graph500 reference (DRAM)",
		Points: []HeatCell{{TEPS: ref.MedianTEPS(), Run: ref}},
	})
	return out, nil
}

// barsEntry registers a Figure 8/9 comparison: the series' cells as one
// flat table.
func barsEntry(name, doc, title string, run func(Options) ([]Fig8Series, error)) Entry {
	return Entry{Name: name, Doc: doc, Run: func(opts Options) (Result, error) {
		series, err := run(opts)
		return Result{Rows: series, Table: cellTable(title, "series", series)}, err
	}}
}

var (
	fig8Entry = barsEntry("fig8", "Figure 8: scenarios x nine (alpha, beta) settings plus DRAM baselines, large scale",
		"Figure 8: BFS performance at -scale (baselines carry no alpha/beta)", Fig8)
	fig9Entry = barsEntry("fig9", "Figure 9: the same comparison one scale down, where everything fits in DRAM",
		"Figure 9: BFS performance one scale below -scale (fits in DRAM)", Fig9)
)

// Fig10Row is one (alpha, beta) point of the traversed-edges comparison.
type Fig10Row struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// TD/BU/Total are the average edges examined per BFS by each
	// direction. They are independent of device placement (the same
	// vertices are traversed), so one scenario's numbers represent all.
	TD    float64 `json:"top_down_edges"`
	BU    float64 `json:"bottom_up_edges"`
	Total float64 `json:"total_edges"`
}

// Fig10 measures the average traversed (examined) edges per direction for
// the nine (alpha, beta) settings, on the proposed technique's
// configuration (forward graph offloaded).
func Fig10(opts Options) ([]Fig10Row, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	sc := lab.scenario(core.ScenarioPCIeFlash, false)
	var rows []Fig10Row
	for _, a := range Fig8Alphas {
		for _, bm := range Fig8BetaMults {
			res, err := lab.Run(sc, bfs.Config{Alpha: a, Beta: bm * a}, false, false)
			if err != nil {
				return nil, err
			}
			var td, bu int64
			for _, rr := range res.PerRoot {
				td += rr.ExaminedTD
				bu += rr.ExaminedBU
			}
			n := float64(len(res.PerRoot))
			rows = append(rows, Fig10Row{
				Alpha: a, Beta: bm * a,
				TD:    float64(td) / n,
				BU:    float64(bu) / n,
				Total: float64(td+bu) / n,
			})
		}
	}
	return rows, nil
}

var fig10Entry = flat[Fig10Row]{
	name: "fig10", doc: "Figure 10: average traversed edges per BFS by direction, nine (alpha, beta) settings",
	run:   Fig10,
	title: "Figure 10: average traversed edges per BFS (top-down / bottom-up / total)",
	cols: []Col[Fig10Row]{
		{"alpha", "alpha", func(r Fig10Row) any { return r.Alpha }},
		{"beta", "beta", func(r Fig10Row) any { return r.Beta }},
		{"top_down_edges", "top-down", func(r Fig10Row) any { return r.TD }},
		{"bottom_up_edges", "bottom-up", func(r Fig10Row) any { return r.BU }},
		{"total_edges", "total", func(r Fig10Row) any { return r.Total }},
	},
}.entry()

// HeadlineRow is one scenario's best result (the abstract's comparison).
type HeadlineRow struct {
	Scenario       string  `json:"scenario"`
	Alpha          float64 `json:"alpha"`
	Beta           float64 `json:"beta"`
	TEPS           float64 `json:"teps"`
	DegradationPct float64 `json:"degradation_pct"` // vs DRAM-only best
	DRAMBytes      int64   `json:"dram_bytes"`
	NVMBytes       int64   `json:"nvm_bytes"`
}

// Headline finds each scenario's best (alpha, beta) over the Figure 8 grid
// and reports the degradation against DRAM-only — the paper's
// "4.22 GTEPS, half the DRAM, 19.18% degradation" result.
func Headline(opts Options) ([]HeadlineRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	sweeps, err := sweepScenarios(lab, Fig8Alphas, Fig8BetaMults)
	if err != nil {
		return nil, err
	}
	var rows []HeadlineRow
	var dramBest float64
	for _, sw := range sweeps {
		if sw.Scenario == core.ScenarioDRAMOnly.Name {
			dramBest = sw.Best.TEPS
		}
	}
	for _, sw := range sweeps {
		row := HeadlineRow{
			Scenario: sw.Scenario,
			Alpha:    sw.Best.Alpha,
			Beta:     sw.Best.Beta,
			TEPS:     sw.Best.TEPS,
		}
		if sw.Best.Run != nil {
			row.DRAMBytes = sw.Best.Run.DRAMBytes
			row.NVMBytes = sw.Best.Run.NVMBytes
		}
		if dramBest > 0 {
			row.DegradationPct = 100 * (1 - sw.Best.TEPS/dramBest)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

var headlineEntry = flat[HeadlineRow]{
	name: "headline", doc: "the abstract's comparison: best TEPS per scenario and degradation vs DRAM-only (-19% / -47%)",
	run:   Headline,
	title: "Headline: best configuration per scenario (paper: 5.12 G / 4.22 G -19.18% / 2.76 G -47.1%)",
	cols: []Col[HeadlineRow]{
		{"scenario", "scenario", func(r HeadlineRow) any { return r.Scenario }},
		{"alpha", "best alpha", func(r HeadlineRow) any { return r.Alpha }},
		{"beta", "beta", func(r HeadlineRow) any { return r.Beta }},
		{"teps", "TEPS", func(r HeadlineRow) any { return TEPS(r.TEPS) }},
		{"degradation_pct", "degradation", func(r HeadlineRow) any { return Pct(r.DegradationPct) }},
		{"dram_bytes", "graph DRAM", func(r HeadlineRow) any { return Bytes(r.DRAMBytes) }},
		{"nvm_bytes", "graph NVM", func(r HeadlineRow) any { return Bytes(r.NVMBytes) }},
	},
	headline: func(rows []HeadlineRow) []Metric {
		return []Metric{
			{"dram-GTEPS", rows[0].TEPS / 1e9},
			{"pcie-degradation-pct", rows[1].DegradationPct},
			{"ssd-degradation-pct", rows[2].DegradationPct},
		}
	},
}.entry()

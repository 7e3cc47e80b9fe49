package experiments

import (
	"fmt"

	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/graph500"
)

// AblationRow is one design-choice measurement.
type AblationRow struct {
	Study   string  `json:"study" text:"study"`
	Variant string  `json:"variant" text:"variant"`
	TEPS    float64 `json:"teps" text:"TEPS,teps"`
	// NVMReads / AvgRequestSectors are filled for NVM variants.
	NVMReads          int64   `json:"nvm_reads" text:"NVM reads"`
	AvgRequestSectors float64 `json:"avg_request_sectors" text:"sectors/req"`
	// ExaminedBU is the bottom-up examined-edge count (adjacency-order
	// study).
	ExaminedBU int64 `json:"examined_bu" text:"BU edges/BFS"`
}

// Ablations measures the design choices DESIGN.md calls out:
//
//  1. backward-graph adjacency order — NETAL's hubs-first ordering vs
//     plain ID order (drives bottom-up early termination);
//  2. forward-graph index placement — on NVM (the paper) vs in DRAM;
//  3. request aggregation — the paper's 4 KiB chunks vs 128 KiB
//     libaio-style aggregated requests (Section VI-D's suggestion).
func Ablations(opts Options) ([]AblationRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []AblationRow
	cfg := defaultBFSConfig()

	// Study 1: adjacency order (DRAM-only, isolates the BU scan).
	for _, variant := range []struct {
		name string
		mode csr.SortMode
	}{
		{"degree-desc (NETAL)", csr.SortByDegreeDesc},
		{"by vertex ID", csr.SortByID},
		{"edge-list order", csr.SortNone},
	} {
		res, err := graph500.RunList(lab.List, graph500.Params{
			Scale: opts.Scale, EdgeFactor: opts.EdgeFactor, Seed: opts.Seed,
			Roots: opts.Roots, ValidateRoots: 1,
			Scenario: core.ScenarioDRAMOnly, BFS: cfg,
			SortMode: variant.mode,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation sort=%s: %w", variant.name, err)
		}
		var bu int64
		for _, rr := range res.PerRoot {
			bu += rr.ExaminedBU
		}
		rows = append(rows, AblationRow{
			Study:      "backward adjacency order",
			Variant:    variant.name,
			TEPS:       res.MedianTEPS(),
			ExaminedBU: bu / int64(len(res.PerRoot)),
		})
	}

	// Studies 2 and 3: forward-graph placement variants on PCIe flash. Both
	// studies' paper rows are one configuration, run once.
	base := lab.scenario(core.ScenarioPCIeFlash, false)
	runs := make(map[core.Scenario]*graph500.Result)
	for _, variant := range []struct {
		study, name string
		mutate      func(*core.Scenario)
	}{
		{"forward index placement", "index on NVM (paper)", func(*core.Scenario) {}},
		{"forward index placement", "index in DRAM", func(sc *core.Scenario) { sc.IndexInDRAM = true }},
		{"request aggregation", "4 KiB chunks (paper)", func(*core.Scenario) {}},
		{"request aggregation", "128 KiB aggregated", func(sc *core.Scenario) { sc.AggregateIO = true }},
	} {
		sc := base
		variant.mutate(&sc)
		res, ok := runs[sc]
		if !ok {
			res, err = lab.Run(sc, cfg, false, false)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", variant.study, variant.name, err)
			}
			runs[sc] = res
		}
		rows = append(rows, AblationRow{
			Study:             variant.study,
			Variant:           variant.name,
			TEPS:              res.MedianTEPS(),
			NVMReads:          res.DeviceStats.Reads,
			AvgRequestSectors: res.DeviceStats.AvgRequestSectors,
		})
	}
	return rows, nil
}

var ablationsEntry = flat[AblationRow]{
	name: "ablations", doc: "DESIGN.md design choices: adjacency order, forward index placement, request aggregation",
	run:   Ablations,
	title: "Ablations: design choices of DESIGN.md",
}.entry()

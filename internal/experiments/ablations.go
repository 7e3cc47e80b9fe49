package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
)

// AblationRow is one design-choice measurement.
type AblationRow struct {
	Study   string  `json:"study"`
	Variant string  `json:"variant"`
	TEPS    float64 `json:"teps"`
	// NVMReads / AvgRequestSectors are filled for NVM variants.
	NVMReads          int64   `json:"nvm_reads"`
	AvgRequestSectors float64 `json:"avg_request_sectors"`
	// ExaminedBU is the bottom-up examined-edge count (adjacency-order
	// study).
	ExaminedBU int64 `json:"examined_bu"`
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
	var rows []AblationRow
	cfg := bfs.Config{Alpha: 1e4, Beta: 1e5, RealWorkers: opts.Workers}

	// Study 1: adjacency order (DRAM-only, isolates the BU scan).
	for _, variant := range []struct {
		name string
		mode csr.SortMode
	}{
		{"degree-desc (NETAL)", csr.SortByDegreeDesc},
		{"by vertex ID", csr.SortByID},
		{"edge-list order", csr.SortNone},
	} {
		res, err := graph500.Run(graph500.Params{
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

	// Studies 2 and 3: forward-graph placement variants on PCIe flash.
	base := core.ScenarioPCIeFlash
	if opts.ScaleEquivalentLatency {
		base.LatencyScale = nvm.ScaleEquivalenceFactor(opts.Scale, PaperScale)
	}
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
		res, err := graph500.Run(graph500.Params{
			Scale: opts.Scale, EdgeFactor: opts.EdgeFactor, Seed: opts.Seed,
			Roots: opts.Roots, ValidateRoots: 1,
			Scenario: sc, BFS: cfg,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation %s/%s: %w", variant.study, variant.name, err)
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
	cols: []Col[AblationRow]{
		{"study", "study", func(r AblationRow) any { return r.Study }},
		{"variant", "variant", func(r AblationRow) any { return r.Variant }},
		{"teps", "TEPS", func(r AblationRow) any { return TEPS(r.TEPS) }},
		{"nvm_reads", "NVM reads", func(r AblationRow) any { return r.NVMReads }},
		{"avg_request_sectors", "sectors/req", func(r AblationRow) any { return r.AvgRequestSectors }},
		{"examined_bu", "BU edges/BFS", func(r AblationRow) any { return r.ExaminedBU }},
	},
}.entry()

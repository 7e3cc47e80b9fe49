package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
)

// PartialLimits is the per-vertex DRAM edge cap grid of the partial
// backward-offload sweep. 0 keeps the whole backward graph in DRAM (the
// paper's default placement, the baseline row); the rest shrink the DRAM
// prefix toward one neighbor per vertex, pushing ever more of the
// bottom-up scan traffic onto the NVM tails.
var PartialLimits = []int{0, 64, 16, 4, 1}

// PartialRow is one (scenario, mode, k) measurement of the partial
// backward-offload sweep.
type PartialRow struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	// KeepEdges is the paper's k: DRAM neighbors per vertex of the
	// backward graph (0 = whole graph in DRAM).
	KeepEdges int     `json:"keep_edges"`
	TEPS      float64 `json:"teps"`
	// BwdDRAMReductionPct is the backward graph's DRAM savings relative
	// to full residency.
	BwdDRAMReductionPct float64 `json:"bwd_dram_reduction_pct"`
	// NVMAccessPct is the fraction of bottom-up neighbor examinations
	// served from the NVM tails.
	NVMAccessPct float64 `json:"nvm_access_pct"`
	BwdDRAMScans int64   `json:"bwd_dram_scans"`
	BwdNVMScans  int64   `json:"bwd_nvm_scans"`
	// BwdNVMBytes is the tails' physical NVM footprint.
	BwdNVMBytes int64 `json:"bwd_nvm_bytes"`
}

// PartialSweep measures TEPS versus the backward graph's DRAM edge cap k
// for both NVM device profiles, in hybrid and pure top-down modes — the
// partial-offloading experiment of Section VI-E, run for real through the
// same nvm.BuildStack pipeline the forward graph uses. TEPS is the
// harmonic mean over roots, as in CacheSweep. No page cache is configured,
// so every tail access pays device cost and the sensitivity to k is not
// masked. Expected shape: hybrid degrades smoothly as k shrinks (its
// bottom-up levels fetch more tails, but the degree-descending prefix
// keeps the hot hub neighbors in DRAM), while top-down-only — already
// paying NVM for every forward adjacency — is far slower throughout and
// indifferent to k.
func PartialSweep(opts Options) ([]PartialRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []PartialRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		// Full-DRAM backward bytes anchor the reduction column.
		fullSys, err := lab.System(sc, false)
		if err != nil {
			return nil, err
		}
		fullBwd := fullSys.DRAMBackwardBytes + fullSys.NVMBackwardBytes
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly} {
			// The cache sweep's switching point, for the same reason: the
			// headline alpha of 1e4 never leaves top-down at reproduction
			// scales, and this sweep is about the bottom-up levels' tail
			// traffic.
			cfg := sweepBFSConfig(opts, mode)
			for _, k := range PartialLimits {
				part := sc
				part.BackwardDRAMEdgeLimit = k
				res, err := lab.Run(part, cfg, false, false)
				if err != nil {
					return nil, fmt.Errorf("partial sweep %s %s k=%d: %w",
						base.Name, mode, k, err)
				}
				sys, err := lab.System(part, false)
				if err != nil {
					return nil, err
				}
				row := PartialRow{
					Scenario:     base.Name,
					Mode:         mode.String(),
					KeepEdges:    k,
					TEPS:         res.TEPS.HarmonicMean,
					BwdDRAMScans: res.BackwardDRAMScans,
					BwdNVMScans:  res.BackwardNVMScans,
					BwdNVMBytes:  sys.NVMBackwardBytes,
				}
				if fullBwd > 0 {
					row.BwdDRAMReductionPct =
						100 * (1 - float64(sys.DRAMBackwardBytes)/float64(fullBwd))
				}
				if total := row.BwdDRAMScans + row.BwdNVMScans; total > 0 {
					row.NVMAccessPct = 100 * float64(row.BwdNVMScans) / float64(total)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

var partialEntry = flat[PartialRow]{
	name: "partial", doc: "partial backward-graph offload (Section VI-E for real): TEPS vs DRAM edge cap k",
	run: PartialSweep,
	title: "Partial backward-graph offload: harmonic-mean TEPS vs DRAM edge cap k\n" +
		"(k = DRAM neighbors kept per vertex; 0 keeps the whole backward graph in DRAM)",
	cols: []Col[PartialRow]{
		{"scenario", "scenario", func(r PartialRow) any { return r.Scenario }},
		{"mode", "mode", func(r PartialRow) any { return r.Mode }},
		{"keep_edges", "k", func(r PartialRow) any { return r.KeepEdges }},
		{"teps", "TEPS", func(r PartialRow) any { return TEPS(r.TEPS) }},
		{"bwd_dram_reduction_pct", "BG DRAM cut", func(r PartialRow) any { return Pct(r.BwdDRAMReductionPct) }},
		{"nvm_access_pct", "NVM access", func(r PartialRow) any { return Pct(r.NVMAccessPct) }},
		{"bwd_dram_scans", "", func(r PartialRow) any { return r.BwdDRAMScans }},
		{"bwd_nvm_scans", "", func(r PartialRow) any { return r.BwdNVMScans }},
		{"bwd_nvm_bytes", "tail bytes", func(r PartialRow) any { return Bytes(r.BwdNVMBytes) }},
	},
}.entry()

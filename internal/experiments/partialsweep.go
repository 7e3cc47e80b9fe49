package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
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
	Scenario string `json:"scenario" text:"scenario"`
	Mode     string `json:"mode" text:"mode"`
	// KeepEdges is the paper's k: DRAM neighbors per vertex of the
	// backward graph (0 = whole graph in DRAM).
	KeepEdges int     `json:"keep_edges" text:"k"`
	TEPS      float64 `json:"teps" text:"TEPS,teps"`
	// BwdDRAMReductionPct is the backward graph's DRAM savings relative
	// to full residency.
	BwdDRAMReductionPct float64 `json:"bwd_dram_reduction_pct" text:"BG DRAM cut,pct"`
	// NVMAccessPct is the fraction of bottom-up neighbor examinations
	// served from the NVM tails.
	NVMAccessPct float64 `json:"nvm_access_pct" text:"NVM access,pct"`
	BwdDRAMScans int64   `json:"bwd_dram_scans"`
	BwdNVMScans  int64   `json:"bwd_nvm_scans"`
	// BwdNVMBytes is the tails' physical NVM footprint.
	BwdNVMBytes int64 `json:"bwd_nvm_bytes" text:"tail bytes,bytes"`
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
		for _, mode := range []bfs.Mode{bfs.ModeHybrid, bfs.ModeTopDownOnly} {
			// The cache sweep's switching point, for the same reason: the
			// headline alpha of 1e4 never leaves top-down at reproduction
			// scales, and this sweep is about the bottom-up levels' tail
			// traffic.
			cfg := sweepBFSConfig(mode)
			for _, k := range PartialLimits {
				row, res, err := backwardOffload(lab, sc, cfg, k)
				if err != nil {
					return nil, fmt.Errorf("partial sweep %s %s k=%d: %w", base.Name, mode, k, err)
				}
				row.Scenario, row.Mode, row.TEPS = base.Name, mode.String(), res.TEPS.HarmonicMean
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// backwardOffload runs sc, which keeps the whole backward graph in DRAM,
// with the backward graph capped at k DRAM neighbors per vertex instead,
// and measures the offload as a PartialRow: the bottom-up scans, the tails'
// NVM bytes, the backward graph's DRAM savings against sc's full residency
// and the share of bottom-up scans served from NVM. The run itself is
// returned for its rates.
func backwardOffload(lab *Lab, sc core.Scenario, cfg bfs.Config, k int) (PartialRow, *graph500.Result, error) {
	full, err := lab.System(sc, false)
	if err != nil {
		return PartialRow{}, nil, err
	}
	sc.BackwardDRAMEdgeLimit = k
	res, err := lab.Run(sc, cfg, false, false)
	if err != nil {
		return PartialRow{}, nil, err
	}
	sys, err := lab.System(sc, false)
	if err != nil {
		return PartialRow{}, nil, err
	}
	row := PartialRow{
		KeepEdges:    k,
		BwdDRAMScans: res.BackwardDRAMScans,
		BwdNVMScans:  res.BackwardNVMScans,
		BwdNVMBytes:  sys.NVMBackwardBytes,
	}
	if fullBwd := full.DRAMBackwardBytes + full.NVMBackwardBytes; fullBwd > 0 {
		row.BwdDRAMReductionPct = 100 * (1 - float64(sys.DRAMBackwardBytes)/float64(fullBwd))
	}
	if total := row.BwdDRAMScans + row.BwdNVMScans; total > 0 {
		row.NVMAccessPct = 100 * float64(row.BwdNVMScans) / float64(total)
	}
	return row, res, nil
}

var partialEntry = flat[PartialRow]{
	name: "partial", doc: "partial backward-graph offload (Section VI-E for real): TEPS vs DRAM edge cap k",
	run: PartialSweep,
	title: "Partial backward-graph offload: harmonic-mean TEPS vs DRAM edge cap k\n" +
		"(k = DRAM neighbors kept per vertex; 0 keeps the whole backward graph in DRAM)",
}.entry()

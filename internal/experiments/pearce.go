package experiments

import (
	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/stats"
)

// PearceRow compares the paper's technique against the Pearce-style
// semi-external baseline on the same instance.
type PearceRow struct {
	System    string  `json:"system" text:"system"`
	TEPS      float64 `json:"teps" text:"TEPS,teps"`
	DRAMBytes int64   `json:"dram_bytes" text:"DRAM,bytes"`
	NVMBytes  int64   `json:"nvm_bytes" text:"NVM,bytes"`
	// DRAMRatio is DRAM / (DRAM + NVM) — the capacity trade-off the
	// paper's Related Work discusses ("our approach uses higher DRAM
	// to NVM ratio").
	DRAMRatio float64 `json:"dram_ratio" text:"DRAM ratio,frac"`
}

// PearceComparison reproduces the paper's Related Work comparison
// (Section VII): Pearce et al.'s semi-external BFS scans all edges from
// NVM every level and reported 0.05 GTEPS (SCALE 36, 1 TB DRAM + 12 TB
// NVM), while the paper's hybrid reached 4.22 GTEPS with a higher
// DRAM:NVM ratio. Both systems run here on the same graph and device.
func PearceComparison(opts Options) ([]PearceRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()

	// The paper's technique at its defaults on PCIe flash.
	sc := lab.scenario(core.ScenarioPCIeFlash, false)
	hybrid, err := lab.Run(sc, defaultBFSConfig(), false, false)
	if err != nil {
		return nil, err
	}
	rows := []PearceRow{{
		System:    "hybrid + forward offload (this paper)",
		TEPS:      hybrid.MedianTEPS(),
		DRAMBytes: hybrid.DRAMBytes,
		NVMBytes:  hybrid.NVMBytes,
	}}

	// Pearce-style scan BFS on the same device profile (unscaled
	// latency is irrelevant: the scan is bandwidth-bound).
	scan, err := bfs.NewScanRunner(lab.Src, topology(), defaultBFSConfig().WithDefaults().Cost,
		core.ScenarioPCIeFlash.Device)
	if err != nil {
		return nil, err
	}
	roots, degree, err := lab.sampleRoots()
	if err != nil {
		return nil, err
	}
	var teps []float64
	for _, root := range roots {
		res, err := scan.Run(root)
		if err != nil {
			return nil, err
		}
		teps = appendTEPS(teps, res.Tree, degree, res.Time)
	}
	rows = append(rows, PearceRow{
		System:    "edge-scan semi-external (Pearce-style)",
		TEPS:      stats.Median(teps),
		DRAMBytes: scan.DRAMBytes(),
		NVMBytes:  scan.NVMBytes(),
	})
	for i := range rows {
		total := rows[i].DRAMBytes + rows[i].NVMBytes
		if total > 0 {
			rows[i].DRAMRatio = float64(rows[i].DRAMBytes) / float64(total)
		}
	}
	return rows, nil
}

var pearceEntry = flat[PearceRow]{
	name: "pearce", doc: "Related Work: the hybrid vs a Pearce-style edge-scan semi-external BFS on the same device",
	run:   PearceComparison,
	title: "Pearce comparison (paper §VII: 4.22 GTEPS vs 0.05 GTEPS, higher DRAM:NVM ratio)",
	headline: func(rows []PearceRow) []Metric {
		if rows[1].TEPS == 0 {
			return nil
		}
		return []Metric{{"hybrid-over-scan-x", rows[0].TEPS / rows[1].TEPS}}
	},
}.entry()

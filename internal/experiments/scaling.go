package experiments

import (
	"semibfs/internal/cluster"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/stats"
)

// ScalingRow is one cluster-size measurement of the multi-node extension.
type ScalingRow struct {
	Machines  int     `json:"machines"`
	TEPS      float64 `json:"teps"`       // median over roots, 1D layout
	CommBytes int64   `json:"comm_bytes"` // mean per BFS, 1D layout
	// Comm splits the 1D traffic by phase; the bottom-up allgather
	// bucket is the one that scales with P.
	Comm cluster.CommStats `json:"comm"`
	// NVMTEPS is the same cluster with per-machine forward offload.
	NVMTEPS float64 `json:"nvm_teps"`
	// TEPS2D / CommBytes2D / Comm2D measure the 2D (Beamer MTAAP'13)
	// layout, whose collectives span sqrt(P) machines — visible in the
	// allgather bucket. (The 2D ring pays for parent updates the 1D
	// layout resolves locally, so totals need not favor 2D.)
	TEPS2D      float64           `json:"teps_2d"`
	CommBytes2D int64             `json:"comm_bytes_2d"`
	Comm2D      cluster.CommStats `json:"comm_2d"`
}

// clusterMeans runs every root through one cluster (graph500.RunCluster;
// check, when set, vets each result) and reduces the totals to the median
// TEPS, the mean total traffic per BFS and its mean per-phase split.
func clusterMeans(roots []int64, degree func(int64) int64, run func(int64) (*cluster.Result, error),
	check func(root int64, res *cluster.Result) error) (float64, int64, cluster.CommStats, error) {
	t, err := graph500.RunCluster(run, roots, degree, 0, check)
	if err != nil {
		return 0, 0, cluster.CommStats{}, err
	}
	n := int64(len(roots))
	split := cluster.CommStats{
		TDFrontier:  t.Comm.TDFrontier / n,
		TDCandidate: t.Comm.TDCandidate / n,
		BUAllgather: t.Comm.BUAllgather / n,
		BURing:      t.Comm.BURing / n,
		Control:     t.Comm.Control / n,
	}
	return stats.Median(t.TEPS), t.CommBytes / n, split, nil
}

// ScalingMachines is the cluster-size sweep of the multi-node experiment.
var ScalingMachines = []int{1, 2, 4, 8, 16}

// Scaling measures the multi-node extension (the paper's future work):
// distributed hybrid BFS TEPS as the machine count grows, with and
// without per-machine forward-graph offloading.
func Scaling(opts Options) ([]ScalingRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()

	roots, degree, err := lab.sampleRoots()
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for _, p := range ScalingMachines {
		row := ScalingRow{Machines: p}
		for _, onNVM := range []bool{false, true} {
			cfg := cluster.Config{
				Machines:     p,
				Alpha:        1e4,
				Beta:         1e5,
				ForwardOnNVM: onNVM,
			}
			if onNVM && opts.ScaleEquivalentLatency {
				cfg.LatencyScale = nvm.ScaleEquivalenceFactor(opts.Scale, PaperScale)
			}
			c, err := cluster.Build(lab.Src, cfg)
			if err != nil {
				return nil, err
			}
			median, comm, split, err := clusterMeans(roots, degree, c.Run, nil)
			c.Close()
			if err != nil {
				return nil, err
			}
			if onNVM {
				row.NVMTEPS = median
			} else {
				row.TEPS = median
				row.CommBytes = comm
				row.Comm = split
			}
		}
		grid, err := cluster.BuildGrid(lab.Src, cluster.Config{
			Machines: p, Alpha: 1e4, Beta: 1e5,
		})
		if err != nil {
			return nil, err
		}
		median, comm, split, err := clusterMeans(roots, degree, grid.Run, nil)
		if err != nil {
			return nil, err
		}
		row.TEPS2D = median
		row.CommBytes2D = comm
		row.Comm2D = split
		rows = append(rows, row)
	}
	return rows, nil
}

var scalingEntry = flat[ScalingRow]{
	name: "scaling", doc: "multi-node extension (the paper's future work): TEPS and traffic vs machine count, 1D and 2D",
	run:   Scaling,
	title: "Multi-node extension: distributed hybrid BFS (paper future work)",
	cols: []Col[ScalingRow]{
		{"machines", "machines", func(r ScalingRow) any { return r.Machines }},
		{"teps", "1D TEPS", func(r ScalingRow) any { return TEPS(r.TEPS) }},
		{"nvm_teps", "1D+node NVM", func(r ScalingRow) any { return TEPS(r.NVMTEPS) }},
		{"comm_bytes", "1D comm", func(r ScalingRow) any { return Bytes(r.CommBytes) }},
		{"bu_allgather_bytes", "1D allgather", func(r ScalingRow) any { return Bytes(r.Comm.BUAllgather) }},
		{"teps_2d", "2D TEPS", func(r ScalingRow) any { return TEPS(r.TEPS2D) }},
		{"comm_bytes_2d", "2D comm", func(r ScalingRow) any { return Bytes(r.CommBytes2D) }},
		{"bu_allgather_bytes_2d", "2D allgather", func(r ScalingRow) any { return Bytes(r.Comm2D.BUAllgather) }},
	},
	headline: func(rows []ScalingRow) []Metric {
		return []Metric{{"speedup-at-max-machines", rows[len(rows)-1].TEPS / rows[0].TEPS}}
	},
}.entry()

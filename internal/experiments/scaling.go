package experiments

import (
	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
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
func clusterMeans(roots []int64, degrees []int64, run func(int64) (*cluster.Result, error),
	check func(root int64, res *cluster.Result) error) (float64, int64, cluster.CommStats, error) {
	t, err := graph500.RunCluster(run, roots, degrees, 0, check)
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
	return stats.Median(t.TEPS), t.Comm.Total() / n, split, nil
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
	// cluster.Config's zero alpha and beta are the paper's 1e4 and 1e5.
	for _, p := range ScalingMachines {
		row := ScalingRow{Machines: p}
		for _, base := range []core.Scenario{core.ScenarioDRAMOnly, core.ScenarioPCIeFlash} {
			c, err := cluster.Build(lab.Src, lab.scenario(base, false).WithGrid(1, p).ClusterConfig())
			if err != nil {
				return nil, err
			}
			median, comm, split, err := clusterMeans(roots, degree, c.Run, nil)
			c.Close()
			if err != nil {
				return nil, err
			}
			if base.HasNVM() {
				row.NVMTEPS = median
			} else {
				row.TEPS = median
				row.CommBytes = comm
				row.Comm = split
			}
		}
		grid, err := cluster.BuildGrid(lab.Src, cluster.Config{Machines: p})
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

// scalingView is one cluster size as tabulated: the 1D and 2D rates,
// their traffic totals and the bottom-up allgather bucket of each.
type scalingView struct {
	Machines    int     `json:"machines" text:"machines"`
	TEPS        float64 `json:"teps" text:"1D TEPS,teps"`
	NVMTEPS     float64 `json:"nvm_teps" text:"1D+node NVM,teps"`
	CommBytes   int64   `json:"comm_bytes" text:"1D comm,bytes"`
	Allgather   int64   `json:"bu_allgather_bytes" text:"1D allgather,bytes"`
	TEPS2D      float64 `json:"teps_2d" text:"2D TEPS,teps"`
	CommBytes2D int64   `json:"comm_bytes_2d" text:"2D comm,bytes"`
	Allgather2D int64   `json:"bu_allgather_bytes_2d" text:"2D allgather,bytes"`
}

var scalingEntry = flat[ScalingRow]{
	name: "scaling", doc: "multi-node extension (the paper's future work): TEPS and traffic vs machine count, 1D and 2D",
	run:   Scaling,
	title: "Multi-node extension: distributed hybrid BFS (paper future work)",
	table: func(title string, rows []ScalingRow) Table {
		view := make([]scalingView, len(rows))
		for i, r := range rows {
			view[i] = scalingView{r.Machines, r.TEPS, r.NVMTEPS, r.CommBytes, r.Comm.BUAllgather,
				r.TEPS2D, r.CommBytes2D, r.Comm2D.BUAllgather}
		}
		return rowTable(title, view)
	},
	headline: func(rows []ScalingRow) []Metric {
		return []Metric{{"speedup-at-max-machines", rows[len(rows)-1].TEPS / rows[0].TEPS}}
	},
}.entry()

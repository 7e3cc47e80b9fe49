package experiments

// This file is the unified grid-over-NVM experiment: distributed hybrid
// BFS where every machine carries the full per-node semi-external stack,
// swept over cluster size x layout (1D vs 2D) x wire/adjacency encoding
// (raw vs compressed) x device profile. Every row's parent trees are
// validated against the single-node DRAM reference — the cross-topology
// equivalence contract — and the per-phase communication split makes the
// Buluc-style claim measurable: the bottom-up allgather scales with the
// grid's column height sqrt(P) instead of P.

import (
	"fmt"

	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/nvm"
)

// Scaling2DRow is one (machines, layout, encoding, device) cell.
type Scaling2DRow struct {
	Machines   int    `json:"machines"`
	Layout     string `json:"layout"` // "1d" or "2d"
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	Device     string `json:"device"`
	Compressed bool   `json:"compressed"`
	// TEPS is the median traversal rate over the sampled roots.
	TEPS float64 `json:"teps"`
	// CommBytes is the mean interconnect traffic per BFS; Comm splits it
	// by phase (the bottom-up allgather bucket carries the 2D-vs-1D
	// claim — the 2D ring pays for parent updates 1D resolves locally,
	// so totals need not favor 2D).
	CommBytes int64             `json:"comm_bytes"`
	Comm      cluster.CommStats `json:"comm"`
	// Validated records that every root's parent tree was bit-identical
	// to the single-node DRAM reference (a mismatch fails the sweep).
	Validated bool `json:"validated"`
}

// Scaling2DMachines is the cluster-size sweep.
var Scaling2DMachines = []int{4, 8, 16}

// scaling2DDevices returns the two device profiles of Table I.
func scaling2DDevices() []nvm.Profile {
	return []nvm.Profile{nvm.ProfileIoDrive2, nvm.ProfileSSD320}
}

// Scaling2D sweeps the unified cluster. Every machine's forward
// adjacency lives behind its own checksummed, cached storage stack; the
// compressed cells additionally delta+varint encode both the adjacency
// and the wire formats.
func Scaling2D(opts Options) ([]Scaling2DRow, error) {
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

	// The oracle: single-node, everything in DRAM, same alpha/beta on
	// the same global frontier counts.
	refSys, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		return nil, err
	}
	refCfg := defaultBFSConfig()
	refCfg.Topology = topology()
	refRun, err := refSys.NewRunner(refCfg)
	if err != nil {
		return nil, err
	}
	refTrees := make(map[int64][]int64, len(roots))
	for _, root := range roots {
		res, err := refRun.Run(root)
		if err != nil {
			return nil, err
		}
		refTrees[root] = res.CloneTree()
	}

	// Every cluster tree must match the reference bit for bit.
	check := func(root int64, res *cluster.Result) error {
		for v, want := range refTrees[root] {
			if res.Tree[v] != want {
				return fmt.Errorf("tree[%d] = %d, single-node DRAM has %d", v, res.Tree[v], want)
			}
		}
		return nil
	}

	var rows []Scaling2DRow
	for _, p := range Scaling2DMachines {
		for _, profile := range scaling2DDevices() {
			for _, compressed := range []bool{false, true} {
				for _, layout := range []string{"1d", "2d"} {
					r, c := 1, p
					if layout == "2d" {
						r, c = cluster.GridShape(p)
					}
					sc := core.ScenarioDRAMOnly
					sc.Device = profile
					sc.ForwardOnNVM = true
					sc.Checksums = true
					sc.CacheBytes = 1 << 20
					sc.Compress = compressed
					// cluster.Config's zero alpha and beta are the paper's.
					cfg := lab.scenario(sc, false).WithGrid(r, c).ClusterConfig()
					row := Scaling2DRow{
						Machines: p, Layout: layout, Rows: r, Cols: c,
						Device: profile.Name, Compressed: compressed,
					}
					var run func(int64) (*cluster.Result, error)
					var done func() error
					if layout == "2d" {
						g, err := cluster.BuildGrid(lab.Src, cfg)
						if err != nil {
							return nil, err
						}
						run, done = g.Run, g.Close
					} else {
						cl, err := cluster.Build(lab.Src, cfg)
						if err != nil {
							return nil, err
						}
						run, done = cl.Run, cl.Close
					}
					var err error
					row.TEPS, _, row.Comm, err = clusterMeans(roots, degree, run, check)
					if cerr := done(); err == nil {
						err = cerr
					}
					if err != nil {
						return nil, fmt.Errorf("scaling2d %s p=%d dev=%s compressed=%v: %w",
							layout, p, profile.Name, compressed, err)
					}
					// Derive the mean total from the averaged split so the
					// phase-sum invariant holds exactly despite integer
					// rounding.
					row.CommBytes = row.Comm.Total()
					row.Validated = true
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// scaling2DView is one cell as tabulated: the grid shape first, and the
// communication split flattened into its phases.
type scaling2DView struct {
	Machines    int     `json:"machines" text:"machines"`
	Rows        int     `json:"rows" text:"rows"`
	Cols        int     `json:"cols" text:"cols"`
	Layout      string  `json:"layout" text:"layout"`
	Device      string  `json:"device" text:"device"`
	Compressed  bool    `json:"compressed" text:"cmp"`
	TEPS        float64 `json:"teps" text:"TEPS,teps"`
	CommBytes   int64   `json:"comm_bytes" text:"comm,bytes"`
	TDFrontier  int64   `json:"td_frontier_bytes"`
	TDCandidate int64   `json:"td_candidate_bytes"`
	BUAllgather int64   `json:"bu_allgather_bytes" text:"allgather,bytes"`
	BURing      int64   `json:"bu_ring_bytes" text:"ring,bytes"`
	Control     int64   `json:"control_bytes"`
	Validated   bool    `json:"validated"`
}

var scaling2DEntry = flat[Scaling2DRow]{
	name: "scale", doc: "grid-over-NVM cluster scaling: 1D vs 2D x raw vs compressed, per-machine storage stacks",
	run: Scaling2D,
	title: "Unified grid-over-NVM scaling: per-machine semi-external stacks\n" +
		"(every row's parent trees validated against the single-node DRAM reference)",
	table: func(title string, rows []Scaling2DRow) Table {
		view := make([]scaling2DView, len(rows))
		for i, r := range rows {
			c := r.Comm
			view[i] = scaling2DView{r.Machines, r.Rows, r.Cols, r.Layout, r.Device, r.Compressed, r.TEPS, r.CommBytes,
				c.TDFrontier, c.TDCandidate, c.BUAllgather, c.BURing, c.Control, r.Validated}
		}
		return rowTable(title, view)
	},
	// At the largest machine count on the primary device: the 2D
	// allgather as a share of 1D's (the sqrt(P) column fan-out claim) and
	// the compressed 2D wire as a share of raw.
	headline: func(rows []Scaling2DRow) []Metric {
		pmax := Scaling2DMachines[len(Scaling2DMachines)-1]
		pick := func(layout string, compressed bool) Scaling2DRow {
			for _, r := range rows {
				if r.Machines == pmax && r.Layout == layout && r.Compressed == compressed &&
					r.Device == scaling2DDevices()[0].Name {
					return r
				}
			}
			return Scaling2DRow{}
		}
		oneD, twoD, twoDCmp := pick("1d", false), pick("2d", false), pick("2d", true)
		return []Metric{
			{"2d-allgather-pct-of-1d", 100 * float64(twoD.Comm.BUAllgather) / float64(oneD.Comm.BUAllgather)},
			{"2d-cmp-wire-pct-of-raw", 100 * float64(twoDCmp.CommBytes) / float64(twoD.CommBytes)},
		}
	},
}.entry()

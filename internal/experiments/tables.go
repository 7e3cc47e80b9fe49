package experiments

import (
	"fmt"

	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/stats"
)

// TableIRow describes one machine configuration (Table I).
type TableIRow struct {
	Scenario     string `json:"scenario" text:"scenario"`
	CPU          string `json:"cpu"`
	DRAM         string `json:"dram" text:"DRAM"`
	NVM          string `json:"nvm" text:"NVM"`
	ReadLatency  string `json:"read_latency" text:"read lat"`
	ReadBW       string `json:"read_bw" text:"read BW"`
	PeakReadIOPS string `json:"peak_read_iops" text:"4K IOPS"`
}

// TableI renders the three machine configurations together with the
// modeled device characteristics behind them.
func TableI() []TableIRow {
	rows := make([]TableIRow, 0, 3)
	for _, sc := range core.Scenarios() {
		r := TableIRow{
			Scenario: sc.Name,
			CPU:      "AMD Opteron 6172 (12 cores) x 4 sockets [simulated]",
			DRAM:     stats.FormatBytes(sc.DRAMCapacity),
			NVM:      "N/A",
		}
		if sc.HasNVM() {
			p := sc.Device
			r.NVM = p.Name
			r.ReadLatency = p.ReadLatency.String()
			r.ReadBW = fmt.Sprintf("%.0f MB/s", p.ReadBandwidth/1e6)
			r.PeakReadIOPS = fmt.Sprintf("%.0fk", p.PeakReadIOPS()/1e3)
		}
		rows = append(rows, r)
	}
	return rows
}

var tableIEntry = flat[TableIRow]{
	name: "table1", doc: "Table I: the three machine configurations and their modeled devices",
	run:   func(Options) ([]TableIRow, error) { return TableI(), nil },
	title: "Table I: machine configurations",
}.entry()

// TableIIRow is one dataset-size row (Table II).
type TableIIRow struct {
	Name  string
	Bytes int64
}

// TableII measures the real data-structure sizes of the built instance at
// opts.Scale and also returns the analytic SCALE 27 row for comparison
// with the paper's 40.1 / 33.1 / 15.1 GB.
func TableII(opts Options) (measured, paper27 []TableIIRow, err error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, nil, err
	}
	defer lab.Close()
	sys, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		return nil, nil, err
	}
	runner, err := sys.NewRunner(defaultBFSConfig())
	if err != nil {
		return nil, nil, err
	}
	fwd := sys.DRAMForwardBytes + sys.NVMForwardBytes
	bwd := sys.DRAMBackwardBytes + sys.NVMBackwardBytes
	status := runner.StatusBytes()
	measured = []TableIIRow{
		{Name: "Forward Graph", Bytes: fwd},
		{Name: "Backward Graph", Bytes: bwd},
		{Name: "BFS Status Data", Bytes: status},
		{Name: "Total", Bytes: fwd + bwd + status},
	}
	m := csr.ModelSizes(PaperScale, opts.EdgeFactor, topology())
	paper27 = []TableIIRow{
		{Name: "Forward Graph", Bytes: m.Forward},
		{Name: "Backward Graph", Bytes: m.Backward},
		{Name: "BFS Status Data", Bytes: m.Status},
		{Name: "Total", Bytes: m.GraphTotal()},
	}
	return measured, paper27, nil
}

// tableIISides is one Table II row as emitted: the measured instance
// beside the analytic SCALE 27 column.
type tableIISides struct {
	Name     string `json:"name" text:"structure"`
	Measured int64  `json:"measured_bytes" text:"measured,bytes"`
	Paper27  int64  `json:"scale27_bytes" text:"SCALE 27,bytes"`
}

var tableIIEntry = flat[tableIISides]{
	name: "table2", doc: "Table II: graph data-structure sizes, measured beside the analytic SCALE 27 column",
	run: func(opts Options) ([]tableIISides, error) {
		measured, paper27, err := TableII(opts)
		rows := make([]tableIISides, len(measured))
		for i, m := range measured {
			rows[i] = tableIISides{m.Name, m.Bytes, paper27[i].Bytes}
		}
		return rows, err
	},
	title: "Table II: graph size, measured at -scale | analytic at SCALE 27 (paper: 40.1/33.1/15.1/88.3 GB)",
}.entry()

// Fig3 computes the analytic size breakdown per SCALE (the paper plots
// SCALEs up to 31, where the total reaches 1.5 TB).
func Fig3(scales []int, edgeFactor int) []csr.SizeBreakdown {
	if len(scales) == 0 {
		for s := 20; s <= 31; s++ {
			scales = append(scales, s)
		}
	}
	if edgeFactor == 0 {
		edgeFactor = 16
	}
	out := make([]csr.SizeBreakdown, 0, len(scales))
	for _, s := range scales {
		out = append(out, csr.ModelSizes(s, edgeFactor, topology()))
	}
	return out
}

// fig3Row is one SCALE's breakdown as tabulated, with its total.
type fig3Row struct {
	Scale    int   `json:"scale" text:"SCALE"`
	EdgeList int64 `json:"edge_list_bytes" text:"edge list,bytes"`
	Forward  int64 `json:"forward_bytes" text:"forward graph,bytes"`
	Backward int64 `json:"backward_bytes" text:"backward graph,bytes"`
	Status   int64 `json:"status_bytes" text:"status,bytes"`
	Total    int64 `json:"total_bytes" text:"total,bytes"`
}

var fig3Entry = flat[csr.SizeBreakdown]{
	name: "fig3", doc: "Figure 3: analytic breakdown of graph size at SCALE 20-31",
	run:   func(o Options) ([]csr.SizeBreakdown, error) { return Fig3(nil, o.EdgeFactor), nil },
	title: "Figure 3: breakdown of graph size at each SCALE",
	table: func(title string, rows []csr.SizeBreakdown) Table {
		view := make([]fig3Row, len(rows))
		for i, r := range rows {
			view[i] = fig3Row{r.Scale, r.EdgeList, r.Forward, r.Backward, r.Status, r.Total()}
		}
		return rowTable(title, view)
	},
}.entry()

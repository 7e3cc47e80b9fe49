package experiments

import (
	"errors"
	"fmt"

	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/graph500"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// UpdateBatchSizes is the updates-per-batch grid of the update sweep:
// each batch is one WAL append and one incremental repair, so the grid
// sweeps the update rate the system absorbs between BFS sweeps.
var UpdateBatchSizes = []int{16, 64, 256}

// UpdateBatches is how many batches each configuration streams.
const UpdateBatches = 10

// UpdateCrashes is the injected crash grid: a clean run (ending in a
// crash-free compaction), power cut mid-WAL-append, and power cut during
// the compaction's manifest flip. Every crashed run is recovered and the
// recovery's virtual cost measured.
var UpdateCrashes = []string{"none", "wal", "compaction"}

// UpdateRow is one (scenario, batch size, crash kind) measurement.
type UpdateRow struct {
	Scenario  string `json:"scenario"`
	BatchSize int    `json:"batch_size"`
	Crash     string `json:"crash"`
	// Applied counts updates that became durable; WALBytes is what they
	// cost on the log.
	Applied  int64 `json:"applied"`
	WALBytes int64 `json:"wal_bytes"`
	// UpdateUs is the mean virtual microseconds per durable update (WAL
	// append plus overlay application).
	UpdateUs float64 `json:"update_us"`
	// RepairUs / RepairEdges are the incremental repair's mean virtual
	// microseconds and scanned edges per batch; RebuildUs is one full
	// fresh BFS over the same graph — the cost repair avoids — and
	// RepairSpeedup their ratio.
	RepairUs      float64 `json:"repair_us"`
	RepairEdges   float64 `json:"repair_edges"`
	RebuildUs     float64 `json:"rebuild_us"`
	RepairSpeedup float64 `json:"repair_speedup"`
	// RecoveryUs is the virtual cost of post-crash recovery (reopen +
	// backward rewrite + WAL replay) and Replayed the updates replayed
	// from the log; both 0 for the crash-free run.
	RecoveryUs float64 `json:"recovery_us"`
	Replayed   int64   `json:"replayed"`
	// CompactUs is the crash-free compaction's virtual cost (0 when the
	// run crashed instead).
	CompactUs float64 `json:"compact_us"`
}

// UpdateSweep measures durable-update throughput, incremental BFS repair
// cost against a full rebuild, and crash-recovery cost, across batch
// sizes and injected crash kinds on both NVM device profiles. Updates
// flow WAL-first (one append per batch), land in the DRAM overlay the
// readers merge at scan time, and each batch's parent-tree damage is
// repaired incrementally; the crashed runs recover by reopening the
// live generation, rewriting the backward graph, and replaying the log.
func UpdateSweep(opts Options) ([]UpdateRow, error) {
	opts = opts.WithDefaults()
	// One real worker, for the reason FailoverSweep pins it: device
	// arrival order is schedule-dependent above one (ROADMAP item 1), and
	// the top-down rebuild each row is measured against goes to the device
	// on every level.
	opts.Workers = 1
	lab, err := NewLab(opts, opts.SmallScale)
	if err != nil {
		return nil, err
	}
	var rows []UpdateRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		for _, size := range UpdateBatchSizes {
			for _, crash := range UpdateCrashes {
				row, err := updateRun(opts, lab.List, base, size, crash)
				if err != nil {
					return nil, fmt.Errorf("update sweep %s b=%d crash=%s: %w", base.Name, size, crash, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func updateRun(opts Options, list *edgelist.List, sc core.Scenario, size int, crash string) (UpdateRow, error) {
	row := UpdateRow{Scenario: sc.Name, BatchSize: size, Crash: crash}
	sc.BackwardDRAMEdgeLimit = 4
	var err error
	if sc.Faults, err = graph500.CrashFaults(crash, opts.Seed, UpdateBatches); err != nil {
		return row, err
	}
	clock := vtime.NewClock(0)
	ds, err := core.BuildDynamic(edgelist.ListSource{List: list}, topology(), sc, clock)
	if err != nil {
		return row, err
	}
	defer ds.Close()
	tr, err := graph500.NewTreeRepair(ds, clock, defaultBFSConfig(opts), 1)
	if err != nil {
		return row, err
	}
	row.RebuildUs = tr.Rebuild.Micros()

	// The sweep stops streaming at the cut; recovery is measured below.
	us := dyn.NewUpdateStream(list, opts.Seed|1)
	cut := false
	for b := 0; b < UpdateBatches; b++ {
		_, _, err := tr.Step(us, size)
		if crash == "wal" && errors.Is(err, nvm.ErrPowerCut) {
			cut = true
			break
		}
		if err != nil {
			return row, err
		}
	}
	stats := ds.Graph.Stats()
	row.Applied = stats.Applied
	row.WALBytes = stats.WALBytes
	if stats.Applied > 0 {
		row.UpdateUs = tr.UpdateTime.Micros() / float64(stats.Applied)
	}
	if tr.Batches > 0 {
		row.RepairUs = tr.RepairTime.Micros() / float64(tr.Batches)
		row.RepairEdges = float64(tr.RepairEdges) / float64(tr.Batches)
	}
	if row.RepairUs > 0 {
		row.RepairSpeedup = row.RebuildUs / row.RepairUs
	}

	switch crash {
	case "none":
		start := clock.Now()
		if err := ds.Graph.Compact(clock); err != nil {
			return row, err
		}
		row.CompactUs = (clock.Now() - start).Micros()
	case "wal":
		if !cut {
			return row, fmt.Errorf("power cut never fired")
		}
	case "compaction":
		if err := ds.Graph.Compact(clock); !errors.Is(err, nvm.ErrPowerCut) {
			return row, fmt.Errorf("compact: %v, want power cut", err)
		}
		cut = true
	}
	if cut {
		rclock, replayed, err := tr.Recover()
		if err != nil {
			return row, err
		}
		row.RecoveryUs = rclock.Now().Micros()
		row.Replayed = replayed
	}
	return row, tr.Verify()
}

var updateEntry = flat[UpdateRow]{
	name: "update", doc: "update sweep: durable update cost, incremental repair vs rebuild, crash-recovery cost",
	run:   UpdateSweep,
	title: "Update sweep: durable update cost, incremental repair vs rebuild, crash recovery",
	cols: []Col[UpdateRow]{
		{"scenario", "scenario", func(r UpdateRow) any { return r.Scenario }},
		{"batch_size", "batch", func(r UpdateRow) any { return r.BatchSize }},
		{"crash", "crash", func(r UpdateRow) any { return r.Crash }},
		{"applied", "applied", func(r UpdateRow) any { return r.Applied }},
		{"wal_bytes", "wal-bytes", func(r UpdateRow) any { return r.WALBytes }},
		{"update_us", "update-us", func(r UpdateRow) any { return r.UpdateUs }},
		{"repair_us", "repair-us", func(r UpdateRow) any { return r.RepairUs }},
		{"repair_edges", "repair-edges", func(r UpdateRow) any { return r.RepairEdges }},
		{"rebuild_us", "rebuild-us", func(r UpdateRow) any { return r.RebuildUs }},
		{"repair_speedup", "speedup", func(r UpdateRow) any { return Times(r.RepairSpeedup) }},
		{"recovery_us", "recovery-us", func(r UpdateRow) any { return r.RecoveryUs }},
		{"replayed", "replayed", func(r UpdateRow) any { return r.Replayed }},
		{"compact_us", "compact-us", func(r UpdateRow) any { return r.CompactUs }},
	},
	// Best incremental-repair speedup over a fresh rebuild per device,
	// and the costliest post-crash recovery.
	headline: func(rows []UpdateRow) []Metric {
		best := map[string]float64{}
		var worst float64
		for _, r := range rows {
			best[r.Scenario] = max(best[r.Scenario], r.RepairSpeedup)
			worst = max(worst, r.RecoveryUs)
		}
		return []Metric{
			{"pcie-repair-speedup-x", best[core.ScenarioPCIeFlash.Name]},
			{"ssd-repair-speedup-x", best[core.ScenarioSSD.Name]},
			{"worst-recovery-ms", worst / 1000},
		}
	},
}.entry()

package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/faults"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// FailoverReplicas is the device-array width grid of the failover sweep:
// a single device (the baseline every earlier experiment used), a two-way
// mirror, and a three-way mirror.
var FailoverReplicas = []int{1, 2, 3}

// FailoverRates is the per-device fault-rate grid: each rate r injects
// transient read errors at rate r and bit-flip corruption at r/2 into
// every replica's independent fault stream. The top rate matches the
// fault sweep's worst case — far beyond any non-failing drive.
var FailoverRates = []float64{0, 0.01, 0.05}

// FailoverScrubRate is the background scrubber's pace, in blocks per
// virtual second, used whenever the sweep mirrors stores. At the default
// 4 KiB block this is ~80 MB/s of scrub traffic — a low-priority
// patrol-read rate, small against the devices' GB/s class bandwidth.
const FailoverScrubRate = 20000

// FailoverRow is one (replicas, fault-rate) measurement of the sweep.
type FailoverRow struct {
	Scenario string  `json:"scenario"`
	Replicas int     `json:"replicas"`
	Rate     float64 `json:"rate"`
	TEPS     float64 `json:"teps"`
	// Failovers counts reads redirected to another replica; ReadErrors is
	// the retry layer's failed-attempt count (errors the mirror absorbed
	// never reach it).
	Failovers  int64 `json:"failovers"`
	ReadErrors int64 `json:"read_errors"`
	// ScrubbedBlocks / RepairedBlocks count the background scrubber's
	// verified and rewritten blocks; MeanRepairUs is the mean virtual
	// repair latency in microseconds (0 when nothing was repaired).
	ScrubbedBlocks int64   `json:"scrubbed_blocks"`
	RepairedBlocks int64   `json:"repaired_blocks"`
	MeanRepairUs   float64 `json:"mean_repair_us"`
	// DeadDevices / DegradedRuns count replicas lost by the end of the
	// benchmark and roots that had to pin to the DRAM direction.
	DeadDevices  int `json:"dead_devices"`
	DegradedRuns int `json:"degraded_runs"`
}

// FailoverSweep measures TEPS and repair activity versus injected
// per-device fault rate for 1-, 2- and 3-way mirrored device arrays — the
// robustness payoff curve of the mirror layer. Runs use one real worker so
// the interleaving of foreground reads and scrub catch-up (which share the
// per-offset fault attempt counters) is schedule-independent, making every
// row bit-reproducible. TEPS is the harmonic mean over roots, like the
// cache sweep, because scrub repairs persist across roots. The expected
// shape: replication costs nothing at rate 0 (reads spread over more
// devices), and as the rate climbs the mirrored arrays hold TEPS by
// absorbing failures in failover while the single device pays for every
// error with retry backoff.
func FailoverSweep(opts Options) ([]FailoverRow, error) {
	opts = opts.WithDefaults()
	opts.Workers = 1
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	base := lab.scenario(core.ScenarioPCIeFlash, true)
	var rows []FailoverRow
	for _, replicas := range FailoverReplicas {
		for _, rate := range FailoverRates {
			sc := base.WithReplicas(replicas, FailoverScrubRate)
			sc.Checksums = true
			sc.Faults = faults.Config{
				Seed:          opts.Seed,
				TransientRate: rate,
				CorruptRate:   rate / 2,
			}
			cfg := sweepBFSConfig(opts, bfs.ModeHybrid)
			res, err := lab.Run(sc, cfg, false, false)
			if err != nil {
				return nil, fmt.Errorf("failover sweep r=%d rate=%g: %w",
					replicas, rate, err)
			}
			row := FailoverRow{
				Scenario:       base.Name,
				Replicas:       replicas,
				Rate:           rate,
				TEPS:           res.TEPS.HarmonicMean,
				Failovers:      res.Resilience.Failovers,
				ReadErrors:     res.Resilience.ReadErrors,
				ScrubbedBlocks: res.Resilience.ScrubbedBlocks,
				RepairedBlocks: res.Resilience.RepairedBlocks,
				DegradedRuns:   res.Resilience.DegradedRuns,
			}
			if row.RepairedBlocks > 0 {
				row.MeanRepairUs = float64(res.Resilience.RepairTime) /
					float64(vtime.Microsecond) / float64(row.RepairedBlocks)
			}
			for _, d := range res.DeviceHealth {
				if d.State == nvm.ReplicaDead {
					row.DeadDevices++
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

var failoverEntry = flat[FailoverRow]{
	name: "failover", doc: "failover sweep: TEPS and repair activity vs per-device fault rate, 1/2/3-way mirrors",
	run:   FailoverSweep,
	title: "Failover sweep: harmonic-mean TEPS vs per-device fault rate and replica count",
	cols: []Col[FailoverRow]{
		{"scenario", "scenario", func(r FailoverRow) any { return r.Scenario }},
		{"replicas", "reps", func(r FailoverRow) any { return r.Replicas }},
		{"rate", "rate", func(r FailoverRow) any { return r.Rate }},
		{"teps", "TEPS", func(r FailoverRow) any { return TEPS(r.TEPS) }},
		{"failovers", "failovers", func(r FailoverRow) any { return r.Failovers }},
		{"read_errors", "errors", func(r FailoverRow) any { return r.ReadErrors }},
		{"scrubbed_blocks", "scrubbed", func(r FailoverRow) any { return r.ScrubbedBlocks }},
		{"repaired_blocks", "repaired", func(r FailoverRow) any { return r.RepairedBlocks }},
		{"mean_repair_us", "repair-us", func(r FailoverRow) any { return r.MeanRepairUs }},
		{"dead_devices", "dead", func(r FailoverRow) any { return r.DeadDevices }},
		{"degraded_runs", "degraded", func(r FailoverRow) any { return r.DegradedRuns }},
	},
}.entry()

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
	Scenario string  `json:"scenario" text:"scenario"`
	Replicas int     `json:"replicas" text:"reps"`
	Rate     float64 `json:"rate" text:"rate"`
	TEPS     float64 `json:"teps" text:"TEPS,teps"`
	// Failovers counts reads redirected to another replica; ReadErrors is
	// the retry layer's failed-attempt count (errors the mirror absorbed
	// never reach it).
	Failovers  int64 `json:"failovers" text:"failovers"`
	ReadErrors int64 `json:"read_errors" text:"errors"`
	// ScrubbedBlocks / RepairedBlocks count the background scrubber's
	// verified and rewritten blocks; MeanRepairUs is the mean virtual
	// repair latency in microseconds (0 when nothing was repaired).
	ScrubbedBlocks int64   `json:"scrubbed_blocks" text:"scrubbed"`
	RepairedBlocks int64   `json:"repaired_blocks" text:"repaired"`
	MeanRepairUs   float64 `json:"mean_repair_us" text:"repair-us"`
	// DeadDevices / DegradedRuns count replicas lost by the end of the
	// benchmark and roots that had to pin to the DRAM direction.
	DeadDevices  int `json:"dead_devices" text:"dead"`
	DegradedRuns int `json:"degraded_runs" text:"degraded"`
}

// FailoverSweep measures TEPS and repair activity versus injected
// per-device fault rate for 1-, 2- and 3-way mirrored device arrays — the
// robustness payoff curve of the mirror layer. TEPS is the harmonic mean
// over roots, like the cache sweep, because scrub repairs persist across
// roots. The expected shape: replication costs nothing at rate 0 (reads
// spread over more devices), and as the rate climbs the mirrored arrays
// hold TEPS by absorbing failures in failover while the single device pays
// for every error with retry backoff.
func FailoverSweep(opts Options) ([]FailoverRow, error) {
	opts = opts.WithDefaults()
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
			cfg := sweepBFSConfig(bfs.ModeHybrid)
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
				Failovers:      res.Layers.Get("mirror", "failovers"),
				ReadErrors:     res.Layers.Get("retry", "read_errors"),
				ScrubbedBlocks: res.Layers.Get("mirror", "scrubbed_blocks"),
				RepairedBlocks: res.Layers.Get("mirror", "repaired_blocks"),
				DegradedRuns:   res.DegradedRuns,
			}
			if row.RepairedBlocks > 0 {
				row.MeanRepairUs = float64(res.Layers.Get("mirror", "repair_ns")) /
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
}.entry()

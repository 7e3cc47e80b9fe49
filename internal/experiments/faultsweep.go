package experiments

import (
	"fmt"

	"semibfs/internal/core"
	"semibfs/internal/faults"
	"semibfs/internal/vtime"
)

// FaultRates is the transient-error-rate grid of the fault sweep: from a
// healthy device through rates far beyond anything a non-failing drive
// exhibits, so the retry overhead curve's whole shape is visible.
var FaultRates = []float64{0, 0.001, 0.01, 0.05}

// FaultRow is one (scenario, error-rate) measurement of the fault sweep.
type FaultRow struct {
	Scenario string  `json:"scenario" text:"scenario"`
	Rate     float64 `json:"rate" text:"rate"`
	TEPS     float64 `json:"teps" text:"TEPS,teps"`
	// Retries / ReadErrors / BackoffTime are the per-benchmark totals the
	// retry layer reports; Injected is the fault layer's own count of
	// transient errors it produced (the two error counts agree when no
	// other error source is active).
	Retries     int64          `json:"retries" text:"retries"`
	ReadErrors  int64          `json:"read_errors" text:"errors"`
	BackoffTime vtime.Duration `json:"backoff_ns" text:"backoff"`
	Injected    int64          `json:"injected"`
	// DegradedRuns counts roots that finished in degraded mode (expected
	// zero in this sweep: transient faults recover by retry).
	DegradedRuns int `json:"degraded_runs" text:"degraded"`
}

// FaultSweep measures TEPS versus injected transient-error rate for both
// NVM scenarios — the robustness analogue of the Figure 8 comparison. The
// expected shape: flat through realistic error rates (retries are rare and
// their backoff is microseconds against millisecond-scale levels), bending
// down once the rate is high enough that multi-attempt reads become common.
func FaultSweep(opts Options) ([]FaultRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []FaultRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, false)
		for _, rate := range FaultRates {
			sc.Faults = faults.Config{Seed: opts.Seed, TransientRate: rate}
			res, err := lab.Run(sc, defaultBFSConfig(), false, false)
			if err != nil {
				return nil, fmt.Errorf("fault sweep %s rate=%g: %w", base.Name, rate, err)
			}
			rows = append(rows, FaultRow{
				Scenario:     base.Name,
				Rate:         rate,
				TEPS:         res.MedianTEPS(),
				Retries:      res.Layers.Get("retry", "retries"),
				ReadErrors:   res.Layers.Get("retry", "read_errors"),
				BackoffTime:  vtime.Duration(res.Layers.Get("retry", "backoff_ns")),
				Injected:     res.Faults.Transient,
				DegradedRuns: res.DegradedRuns,
			})
		}
	}
	return rows, nil
}

var faultsEntry = flat[FaultRow]{
	name: "faults", doc: "fault sweep: median TEPS vs injected transient-error rate, both NVM scenarios",
	run:   FaultSweep,
	title: "Fault sweep: median TEPS vs injected transient-error rate",
}.entry()

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
	Scenario string  `json:"scenario"`
	Rate     float64 `json:"rate"`
	TEPS     float64 `json:"teps"`
	// Retries / ReadErrors / BackoffTime are the per-benchmark totals the
	// retry layer reports; Injected is the fault layer's own count of
	// transient errors it produced (the two error counts agree when no
	// other error source is active).
	Retries     int64          `json:"retries"`
	ReadErrors  int64          `json:"read_errors"`
	BackoffTime vtime.Duration `json:"backoff_ns"`
	Injected    int64          `json:"injected"`
	// DegradedRuns counts roots that finished in degraded mode (expected
	// zero in this sweep: transient faults recover by retry).
	DegradedRuns int `json:"degraded_runs"`
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
			res, err := lab.Run(sc, defaultBFSConfig(opts), false, false)
			if err != nil {
				return nil, fmt.Errorf("fault sweep %s rate=%g: %w", base.Name, rate, err)
			}
			rows = append(rows, FaultRow{
				Scenario:     base.Name,
				Rate:         rate,
				TEPS:         res.MedianTEPS(),
				Retries:      res.Resilience.Retries,
				ReadErrors:   res.Resilience.ReadErrors,
				BackoffTime:  res.Resilience.BackoffTime,
				Injected:     res.Faults.Transient,
				DegradedRuns: res.Resilience.DegradedRuns,
			})
		}
	}
	return rows, nil
}

var faultsEntry = flat[FaultRow]{
	name: "faults", doc: "fault sweep: median TEPS vs injected transient-error rate, both NVM scenarios",
	run:   FaultSweep,
	title: "Fault sweep: median TEPS vs injected transient-error rate",
	cols: []Col[FaultRow]{
		{"scenario", "scenario", func(r FaultRow) any { return r.Scenario }},
		{"rate", "rate", func(r FaultRow) any { return r.Rate }},
		{"teps", "TEPS", func(r FaultRow) any { return TEPS(r.TEPS) }},
		{"retries", "retries", func(r FaultRow) any { return r.Retries }},
		{"read_errors", "errors", func(r FaultRow) any { return r.ReadErrors }},
		{"backoff_ns", "backoff", func(r FaultRow) any { return r.BackoffTime }},
		{"injected", "", func(r FaultRow) any { return r.Injected }},
		{"degraded_runs", "degraded", func(r FaultRow) any { return r.DegradedRuns }},
	},
}.entry()

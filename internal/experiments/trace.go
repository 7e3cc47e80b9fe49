package experiments

import (
	"semibfs/internal/bfs"
	"semibfs/internal/core"
)

// TraceRow is one BFS level of the execution trace.
type TraceRow struct {
	Scenario  string  `json:"scenario" text:"scenario"`
	Level     int     `json:"level" text:"level"`
	Direction string  `json:"direction" text:"direction"`
	Frontier  int64   `json:"frontier" text:"frontier"`
	AvgDegree float64 `json:"avg_degree" text:"avgdeg"`
	Examined  int64   `json:"examined" text:"examined"`
	NVMEdges  int64   `json:"nvm_edges" text:"NVM"`
	Seconds   float64 `json:"seconds" text:"vtime s"`
}

// Trace records the per-level anatomy of one BFS on each scenario — the
// narrative of Section VI-C: "first several levels are conducted by
// top-down approaches. Then ... next several steps are conducted by
// bottom-up approaches. Finally ... last several steps are conducted by
// top-down approaches", with the tail levels' low average degree being
// where NVM hurts.
func Trace(opts Options) ([]TraceRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	var rows []TraceRow
	// Scale-relative thresholds chosen to exhibit the paper's narrative
	// shape (top-down head, bottom-up middle, top-down tail): switch to
	// bottom-up once the frontier exceeds n/300 vertices, and back once
	// it shrinks below n/50.
	cfg := bfs.Config{Alpha: 300, Beta: 50}
	for _, base := range core.Scenarios() {
		sc := lab.scenario(base, false)
		res, err := lab.Run(sc, cfg, true, false)
		if err != nil {
			return nil, err
		}
		for _, l := range res.PerRoot[0].Levels {
			rows = append(rows, TraceRow{
				Scenario:  base.Name,
				Level:     l.Level,
				Direction: l.Direction.String(),
				Frontier:  l.Frontier,
				AvgDegree: l.AvgDegree(),
				Examined:  l.Examined(),
				NVMEdges:  l.ExaminedNVM,
				Seconds:   l.Time.Seconds(),
			})
		}
	}
	return rows, nil
}

var traceEntry = flat[TraceRow]{
	name: "trace", doc: "Section VI-C narrative: the per-level anatomy of one BFS on each scenario",
	run:   Trace,
	title: "Execution trace: per-level anatomy of one BFS (Section VI-C narrative)",
}.entry()

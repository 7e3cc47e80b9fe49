// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) and the repository's extension sweeps. Each
// experiment is one function returning typed rows plus one registry Entry
// (registry.go) that renders them as text, CSV and JSON. A row type is its
// own table (rowTable, table.go): its JSON tags name the CSV columns and
// its text tags the text table's; an entry that shows a summary of its rows
// tabulates a small view type the same way. cmd/analyze and the
// repository's bench_test.go are loops over that registry, so the numbers
// in EXPERIMENTS.md come from exactly this code.
package experiments

import (
	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

// PaperScale is the paper's headline problem size (SCALE 27); the latency
// scale-equivalence factor is computed against it.
const PaperScale = 27

// Options parameterize a reproduction run.
type Options struct {
	// Scale is the "large" instance standing in for the paper's 27; the
	// "small" one standing in for its 26 (Figure 9) is Scale-1.
	Scale      int
	EdgeFactor int
	Seed       uint64
	// Roots is the number of BFS iterations per configuration. The
	// Graph500 protocol uses 64; sweeps default to fewer to keep the
	// wall time of the full reproduction reasonable.
	Roots int
	// Dir places NVM store files on disk; empty uses in-memory stores.
	Dir string
	// ScaleEquivalentLatency applies the 2^(scale-27) device latency
	// factor in the performance experiments (Figures 7-10 and the
	// headline); the device-usage experiments (Figures 11-13) always
	// use the unscaled profiles.
	ScaleEquivalentLatency bool
	// Faults injects deterministic seeded faults into every NVM scenario
	// a sweep builds (experiments that sweep fault parameters themselves,
	// like FaultSweep and FailoverSweep, ignore it). The zero value
	// injects nothing.
	Faults faults.Config
}

// WithDefaults returns o with zero fields defaulted.
func (o Options) WithDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 18
	}
	if o.EdgeFactor == 0 {
		o.EdgeFactor = generator.DefaultEdgeFactor
	}
	if o.Seed == 0 {
		o.Seed = 12345
	}
	if o.Roots == 0 {
		o.Roots = 16
	}
	return o
}

// Lab caches the generated edge list and the built systems of one
// instance so a sweep over (alpha, beta) points pays generation and
// construction once per scenario.
type Lab struct {
	Opts Options
	// Scale is this lab's instance scale (Opts.Scale or Opts.Scale-1).
	Scale int
	List  *edgelist.List
	Src   edgelist.Source

	systems map[systemKey]*core.System
}

// systemKey identifies a built system: the whole scenario (comparable, so
// no field can be forgotten) and whether device series are recorded.
type systemKey struct {
	sc     core.Scenario
	series bool
}

// NewLab generates the edge list for the given scale and returns an empty
// system cache.
func NewLab(opts Options, scale int) (*Lab, error) {
	opts = opts.WithDefaults()
	gen := generator.Config{Scale: scale, EdgeFactor: opts.EdgeFactor, Seed: opts.Seed}
	if err := gen.Validate(); err != nil {
		return nil, err
	}
	list, err := generator.Generate(gen)
	if err != nil {
		return nil, err
	}
	return &Lab{
		Opts:    opts,
		Scale:   scale,
		List:    list,
		Src:     edgelist.ListSource{List: list},
		systems: make(map[systemKey]*core.System),
	}, nil
}

// scenario applies the lab's latency-equivalence policy and ambient fault
// configuration to sc.
func (l *Lab) scenario(sc core.Scenario, unscaled bool) core.Scenario {
	if l.Opts.ScaleEquivalentLatency && !unscaled && sc.HasNVM() {
		sc.LatencyScale = nvm.ScaleEquivalenceFactor(l.Scale, PaperScale)
	}
	if l.Opts.Faults.Enabled() && sc.HasNVM() && !sc.Faults.Enabled() {
		sc.Faults = l.Opts.Faults
		if sc.Faults.CorruptRate > 0 {
			// Undetected bit flips would silently corrupt every sweep
			// row; corruption injection implies verification.
			sc.Checksums = true
		}
	}
	return sc
}

// System builds (or returns the cached) system for sc. The series flag
// enables per-bin device statistics.
func (l *Lab) System(sc core.Scenario, series bool) (*core.System, error) {
	key := systemKey{sc, series}
	if sys, ok := l.systems[key]; ok {
		return sys, nil
	}
	opts := core.BuildOptions{Dir: l.Opts.Dir}
	if series {
		opts.SeriesBinWidth = 2 * vtime.Millisecond
	}
	sys, err := core.Build(l.Src, topology(), sc, opts)
	if err != nil {
		return nil, err
	}
	l.systems[key] = sys
	return sys, nil
}

// Run executes the Graph500 protocol (Steps 3-4) on the cached system for
// sc with the given BFS parameters.
func (l *Lab) Run(sc core.Scenario, cfg bfs.Config, keepLevels, series bool) (*graph500.Result, error) {
	sys, err := l.System(sc, series)
	if err != nil {
		return nil, err
	}
	p := graph500.Params{
		Scale:          l.Scale,
		EdgeFactor:     l.Opts.EdgeFactor,
		Seed:           l.Opts.Seed,
		Roots:          l.Opts.Roots,
		ValidateRoots:  1,
		Scenario:       sc,
		BFS:            cfg,
		KeepLevelStats: keepLevels,
	}
	return graph500.RunOnSystem(sys, l.Src, p)
}

// sampleRoots draws Opts.Roots Graph500 search keys off the lab's edge list
// and returns them with the degree table TEPS accounting needs.
func (l *Lab) sampleRoots() ([]int64, []int64, error) {
	return graph500.ListRoots(l.List, l.Opts.Roots, l.Opts.Seed)
}

// appendTEPS appends one search's Graph500 rate — undirected edges incident
// to the vertices tree reached (degrees[v] each), over its virtual time t —
// unless t is zero.
func appendTEPS(teps []float64, tree []int64, degrees []int64, t vtime.Duration) []float64 {
	if t > 0 {
		teps = append(teps, float64(validate.TraversedEdges(tree, degrees))/t.Seconds())
	}
	return teps
}

// Close releases every cached system.
func (l *Lab) Close() error {
	var first error
	for _, sys := range l.systems {
		if err := sys.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.systems = make(map[systemKey]*core.System)
	return first
}

// topology returns the simulated machine every experiment uses (the
// paper's 4x12-core Opteron box).
func topology() numa.Topology { return numa.DefaultTopology }

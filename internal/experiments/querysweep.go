package experiments

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
)

// QueryBatchWidths is the batch-size grid of the query sweep: B BFS roots
// served per batched sweep, from the single-source baseline up to the full
// 64-lane word.
var QueryBatchWidths = []int{1, 4, 16, 32, 64}

// QuerySweepSeed fixes the sampled query stream, so every batch width (and
// every run) serves the identical roots in the identical arrival order.
const QuerySweepSeed = 0xB5F5

// QuerySweepCacheFraction is the shared page-cache budget of the sweep, as
// a fraction of the forward graph's NVM footprint. The batching argument is
// strongest when the graph does not fit: lanes share both the single pass
// of NVM reads and whatever block reuse the small cache can hold.
const QuerySweepCacheFraction = 1.0 / 8

// QueryRow is one (scenario, batch width) measurement of the query sweep.
type QueryRow struct {
	Scenario string `json:"scenario" text:"scenario"`
	// Lanes is the batch width B; Queries the stream length; Batches the
	// number of batched sweeps that served it (ceil(Queries/Lanes)).
	Lanes   int `json:"lanes" text:"B"`
	Queries int `json:"queries" text:"queries"`
	Batches int `json:"batches" text:"batches"`
	// Seconds is the stream's total virtual time; AmortizedSeconds is the
	// mean per-query share of it (Seconds/Queries) — the serving-layer
	// latency cost batching buys down.
	Seconds          float64 `json:"seconds"`
	AmortizedSeconds float64 `json:"amortized_seconds" text:"amort s/qry"`
	// TEPS is the harmonic mean over queries of amortized per-query TEPS
	// (traversed edges over the query's share of its batch's time) — the
	// Graph500 aggregate, applied to the batched serving cost.
	TEPS float64 `json:"teps" text:"hm TEPS,teps"`
	// AggregateTEPS is total traversed edges over total time: the stream
	// throughput of the whole pool.
	AggregateTEPS float64 `json:"aggregate_teps" text:"agg TEPS,teps"`
	CacheHitRate  float64 `json:"cache_hit_rate" text:"hit%,frac"`
	// NVMEdges counts adjacency edges read from NVM across the stream —
	// the traffic the lane sharing collapses as B grows.
	NVMEdges int64 `json:"nvm_edges" text:"NVM edges"`
	Switches int   `json:"switches"`
	Levels   int   `json:"levels"`
}

// QuerySweep measures amortized per-query BFS cost versus batch width on
// both NVM device profiles. A width-B batch advances B searches through a
// single sweep of the graph: one pass of top-down NVM reads (and one warm
// page cache) serves every lane, so the per-query amortized time falls as
// B grows even though the batch itself takes longer than any single
// search. Every lane of every batch is validated against the Graph500
// rules. Every width runs on the lab's system for the scenario, from a cold
// page cache and a new device epoch, so nothing leaks between rows; device
// profiles are unscaled like the other device-behaviour experiments.
func QuerySweep(opts Options) ([]QueryRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	cfg := sweepBFSConfig(bfs.ModeHybrid)

	var rows []QueryRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		cached, roots, err := servingSetup(lab, sc, opts.Roots, QuerySweepSeed)
		if err != nil {
			return nil, err
		}

		for _, lanes := range QueryBatchWidths {
			row, err := runQueryWidth(lab, cached, cfg, base.Name, lanes, roots)
			if err != nil {
				return nil, fmt.Errorf("query sweep %s B=%d: %w", base.Name, lanes, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// servingSetup readies one scenario of the serving sweeps with a probe
// build: it measures the forward footprint to size the shared page cache
// (QuerySweepCacheFraction of it) and samples the fixed query stream off
// the degree distribution.
func servingSetup(lab *Lab, sc core.Scenario, queries int, seed uint64) (core.Scenario, []int64, error) {
	probe, err := core.Build(lab.Src, topology(), sc, core.BuildOptions{Dir: lab.Opts.Dir})
	if err != nil {
		return sc, nil, err
	}
	roots, err := graph500.SampleRoots(lab.Src.NumVertices(), queries, seed, probe.Backward.Degree)
	cached := sc.WithCache(int64(QuerySweepCacheFraction*float64(probe.NVMForwardBytes)), CacheReadahead)
	if cerr := probe.Close(); err == nil {
		err = cerr
	}
	return cached, roots, err
}

// runQueryWidth serves the fixed root stream at one batch width, every lane
// validated, and reduces the stream into a QueryRow.
func runQueryWidth(lab *Lab, sc core.Scenario, cfg bfs.Config, name string, lanes int, roots []int64) (*QueryRow, error) {
	sys, err := lab.System(sc, false)
	if err != nil {
		return nil, err
	}
	res, err := graph500.RunBatched(sys, lab.Src, cfg, lanes, roots, 0)
	if err != nil {
		return nil, err
	}
	row := &QueryRow{
		Scenario: name, Lanes: lanes, Queries: res.Queries, Batches: len(res.Batches),
		Seconds: res.Seconds, AmortizedSeconds: res.Seconds / float64(res.Queries),
		TEPS: res.HarmonicTEPS, AggregateTEPS: res.AggregateTEPS(),
		CacheHitRate: res.Layers.CacheView().HitRate(), NVMEdges: res.NVMEdges,
	}
	for _, b := range res.Batches {
		row.Switches += b.Switches
		row.Levels += b.Levels
	}
	return row, nil
}

var queryEntry = flat[QueryRow]{
	name: "query", doc: "query sweep: amortized per-query BFS cost vs multi-source batch width B",
	run:   QuerySweep,
	title: "Query sweep: amortized per-query cost vs batch width B (fixed query stream)",
}.entry()

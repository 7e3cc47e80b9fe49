package experiments

import (
	"fmt"
	"math"
	"sort"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/graph500"
	"semibfs/internal/serve"
	"semibfs/internal/validate"
)

// LoadSweepLanes is the serving width of the load sweep: the always-on
// server advances up to this many queries per sweep, admitting new
// arrivals into lanes freed between sweeps.
const LoadSweepLanes = 16

// LoadSweepSeed fixes the sampled query stream of the load sweep.
const LoadSweepSeed = 0x10AD

// LoadSweepLoadFactors is the offered-load grid, as multiples of the
// calibrated serving capacity: from half load through deep saturation.
var LoadSweepLoadFactors = []float64{0.5, 1, 2, 4}

// LoadSweepQueriesPerRootOpt scales the stream length: each row serves
// this many times Options.Roots queries (quantile resolution needs a
// longer stream than the throughput experiments).
const LoadSweepQueriesPerRootOpt = 4

// LoadRow is one (scenario, offered load, admission policy) measurement.
type LoadRow struct {
	Scenario string `json:"scenario" text:"scenario"`
	// LoadFactor is offered QPS over calibrated capacity QPS; QPS is the
	// absolute open-loop arrival rate on the virtual clock.
	LoadFactor float64 `json:"load_factor" text:"load,times"`
	QPS        float64 `json:"qps" text:"qps"`
	// CapacityQPS is the calibrated closed-loop serving rate of the
	// scenario (shared by every row of the scenario).
	CapacityQPS float64 `json:"capacity_qps"`
	// Shedding reports whether the row ran with admission control (a
	// bounded queue plus a deadline) or the unbounded baseline.
	Shedding bool `json:"shedding" text:"shed?"`
	// Queries is the stream length; Served/Shed/Expired partition it.
	Queries int   `json:"queries"`
	Served  int64 `json:"served" text:"served"`
	Shed    int64 `json:"shed" text:"shed"`
	Expired int64 `json:"expired" text:"expired"`
	// P50/P95/P99/Mean are completion-latency quantiles of the served
	// queries, in virtual seconds (arrival to finish, queueing included).
	P50  float64 `json:"p50_seconds" text:"p50 s"`
	P95  float64 `json:"p95_seconds"`
	P99  float64 `json:"p99_seconds" text:"p99 s"`
	Mean float64 `json:"mean_seconds"`
	// WaitP99 is the 99th-percentile queue wait of admitted queries.
	WaitP99 float64 `json:"wait_p99_seconds" text:"wait99 s"`
	// MaxQueueDepth / MeanQueueDepth describe the submission queue;
	// Occupancy is the mean fraction of lanes doing useful work per sweep.
	MaxQueueDepth  int     `json:"max_queue_depth" text:"maxq"`
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	Occupancy      float64 `json:"occupancy" text:"occ%,frac"`
	// AggregateTEPS is served traversed edges over the stream makespan.
	AggregateTEPS float64 `json:"aggregate_teps"`
}

// LoadSweep measures serving latency versus offered load on both NVM
// device profiles. Open-loop arrivals at a target QPS on the virtual clock
// stream into a continuous-batching server; each row reports the latency
// distribution to saturation. Per scenario the sweep first calibrates
// capacity with a closed-loop burst, then walks the load grid twice: with
// admission control (queue bounded at the lane count, deadline a small
// multiple of the unloaded latency, reject-newest shedding) and without
// (unbounded queue, no deadlines). Past the knee the bounded server keeps
// the p99 of admitted queries flat by shedding the excess, while the
// unbounded baseline's latency grows without bound with queue depth.
// Every served tree is validated against the Graph500 rules. Each row runs
// on a freshly built system so no page-cache warmth leaks between rows;
// device profiles are unscaled like the other device-behaviour
// experiments.
func LoadSweep(opts Options) ([]LoadRow, error) {
	opts = opts.WithDefaults()
	lab, err := NewLab(opts, opts.Scale)
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	cfg := sweepBFSConfig(bfs.ModeHybrid)
	queries := LoadSweepQueriesPerRootOpt * opts.Roots

	var rows []LoadRow
	for _, base := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		sc := lab.scenario(base, true)
		cached, roots, err := servingSetup(lab, sc, queries, LoadSweepSeed)
		if err != nil {
			return nil, err
		}

		// Calibrate: a closed-loop burst of 2 full cohorts measures the
		// scenario's serving capacity and unloaded completion latency.
		capacity, unloaded, err := calibrateLoad(lab, cached, cfg, roots)
		if err != nil {
			return nil, fmt.Errorf("load sweep %s calibration: %w", base.Name, err)
		}

		for _, lf := range LoadSweepLoadFactors {
			for _, shedding := range []bool{false, true} {
				row, err := runLoadPoint(lab, cached, cfg, base.Name, roots, lf, capacity, unloaded, shedding)
				if err != nil {
					return nil, fmt.Errorf("load sweep %s load=%gx shed=%v: %w", base.Name, lf, shedding, err)
				}
				rows = append(rows, *row)
			}
		}
	}
	return rows, nil
}

// calibrateLoad serves the whole query stream as one simultaneous
// closed-loop burst through an unbounded server and returns the capacity
// QPS (burst size over makespan) and the unloaded per-query latency. The
// burst must be the full stream: a short burst's makespan is dominated by
// the cold page cache and the low-occupancy straggler tail, understating
// the steady-state rate the load grid is a multiple of. The unloaded
// latency is the median over the burst's wait-free queries (admitted the
// instant they arrived), whose latency is pure service time.
func calibrateLoad(lab *Lab, sc core.Scenario, cfg bfs.Config, roots []int64) (capacity, unloaded float64, err error) {
	trace := make([]serve.Arrival, len(roots))
	for i, root := range roots {
		trace[i] = serve.Arrival{Root: root, At: 0}
	}
	res, err := serveLoadTrace(lab, sc, cfg, trace, serve.ServerConfig{Lanes: LoadSweepLanes})
	if err != nil {
		return 0, 0, err
	}
	outs, st := res.Outcomes, res.Stats
	var makespan float64
	var waitFree []float64
	for _, o := range outs {
		if o.Finished > makespan {
			makespan = o.Finished
		}
		if o.Outcome == serve.OutcomeServed && o.Admitted == o.Arrival {
			waitFree = append(waitFree, o.Latency)
		}
	}
	if makespan <= 0 || st.Served != int64(len(trace)) || len(waitFree) == 0 {
		return 0, 0, fmt.Errorf("calibration burst served %d/%d in %gs", st.Served, len(trace), makespan)
	}
	sort.Float64s(waitFree)
	return float64(len(trace)) / makespan, quantileExact(waitFree, 0.50), nil
}

// runLoadPoint serves the fixed root stream as an open-loop arrival
// process at loadFactor times capacity, with or without admission control,
// and reduces the outcomes into a LoadRow.
func runLoadPoint(lab *Lab, sc core.Scenario, cfg bfs.Config, name string, roots []int64,
	loadFactor, capacity, unloaded float64, shedding bool) (*LoadRow, error) {
	qps := loadFactor * capacity
	trace := make([]serve.Arrival, len(roots))
	for i, root := range roots {
		trace[i] = serve.Arrival{Root: root, At: float64(i) / qps}
	}
	scfg := serve.ServerConfig{Lanes: LoadSweepLanes, KeepTrees: true}
	if shedding {
		scfg.QueueCap = LoadSweepLanes
		scfg.Policy = serve.RejectNewest
		// Generous but finite: an admitted query may wait a few unloaded
		// service times, never an unbounded queue's worth.
		scfg.DefaultDeadline = 8 * unloaded
	}
	res, err := serveLoadTrace(lab, sc, cfg, trace, scfg)
	if err != nil {
		return nil, err
	}
	outs, st := res.Outcomes, res.Stats

	row := &LoadRow{
		Scenario:       name,
		LoadFactor:     loadFactor,
		QPS:            qps,
		CapacityQPS:    capacity,
		Shedding:       shedding,
		Queries:        len(trace),
		Served:         st.Served,
		Shed:           st.Shed,
		Expired:        st.Expired,
		MaxQueueDepth:  st.MaxQueueDepth,
		MeanQueueDepth: st.MeanQueueDepth(),
		Occupancy:      st.Occupancy(LoadSweepLanes),
	}
	// Quantiles from exact order statistics: the server's histograms are
	// for live monitoring, but a sweep row should not carry their bucket
	// resolution (±12.5%) into the latency-load curves.
	var latencies, waits []float64
	var traversed int64
	var makespan float64
	for _, o := range outs {
		if o.Finished > makespan {
			makespan = o.Finished
		}
		if o.Outcome != serve.OutcomeServed {
			continue
		}
		latencies = append(latencies, o.Latency)
		waits = append(waits, o.Admitted-o.Arrival)
		row.Mean += o.Latency
		rep, err := validate.Run(o.Parents, o.Root, lab.Src)
		if err != nil {
			return nil, fmt.Errorf("query %d root %d: %w", o.ID, o.Root, err)
		}
		traversed += rep.TraversedEdges
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		sort.Float64s(waits)
		row.P50 = quantileExact(latencies, 0.50)
		row.P95 = quantileExact(latencies, 0.95)
		row.P99 = quantileExact(latencies, 0.99)
		row.WaitP99 = quantileExact(waits, 0.99)
		row.Mean /= float64(len(latencies))
	}
	if makespan > 0 {
		row.AggregateTEPS = float64(traversed) / makespan
	}
	return row, nil
}

// quantileExact returns the q-quantile of sorted by the nearest-rank rule.
func quantileExact(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// serveLoadTrace plays the trace through a server configured per scfg, on
// the lab's system for sc (RunServed starts it cold).
func serveLoadTrace(lab *Lab, sc core.Scenario, cfg bfs.Config, trace []serve.Arrival,
	scfg serve.ServerConfig) (*graph500.ServedResult, error) {
	sys, err := lab.System(sc, false)
	if err != nil {
		return nil, err
	}
	return graph500.RunServed(sys, cfg, scfg, trace)
}

var loadEntry = flat[LoadRow]{
	name: "load", doc: "load sweep: serving latency quantiles vs open-loop offered load, with and without shedding",
	run:   LoadSweep,
	title: fmt.Sprintf("Load sweep: serving latency vs offered load (open-loop arrivals, B = %d lanes)", LoadSweepLanes),
}.entry()

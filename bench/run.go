package main

import (
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// simOp is one op on the virtual clock.
type simOp struct {
	// simS is the op's virtual duration (sim_op_s_*).
	simS float64
	// edges / tepsS give the op's TEPS: traversed (or pulled) edges over
	// the virtual seconds they took. tepsS equals simS except where the op
	// wraps more than the traversal (dyn-pcie rounds).
	edges int64
	tepsS float64
}

// pass is one execution of a workload: a fresh set-up followed by the
// timed ops. A run repeats passes until its time budget is spent.
type pass struct {
	steps stepTimes
	sim   []simOp
	meter opMeter
	// examined is the numerator of host_edges_per_s: edges the engines
	// examined during the timed ops.
	examined int64
	// dram / raw are sim_dram_frac's numerator and denominator in bytes:
	// everything the workload keeps in DRAM (graph arrays, cache budgets,
	// overlays, the engine's status data) over both CSR graphs' bytes.
	dram, raw int64
	// attempted / failed count ops and their correctness failures.
	attempted, failed int
	// layer holds per-layer metrics observed during the pass (program
	// counters as per-run deltas, harness-timed layer calls).
	layer map[string]float64
	// digest collects every virtual-clock value, count and tree hash of the
	// pass; two passes over the same inputs must produce the same digest.
	digest []string
	notes  []string
}

func newPass() *pass {
	return &pass{steps: stepTimes{}, layer: map[string]float64{}}
}

func (p *pass) note(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure of one op.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.note("FAIL: "+format, args...)
}

func (p *pass) digestf(format string, args ...any) {
	p.digest = append(p.digest, fmt.Sprintf(format, args...))
}

func (p *pass) digestSum() string {
	h := sha256.Sum256([]byte(strings.Join(p.digest, "\n")))
	return fmt.Sprintf("%x", h[:8])
}

// runCtx carries one pass's inputs.
type runCtx struct {
	// seed draws the search keys, the update stream and the arrival
	// schedule; graphSeed draws the Kronecker instance (see graphSeedFor).
	seed, graphSeed uint64
	// tr is nil for the untraced run.
	tr *tracer
	// validate turns on full output validation; later passes of a run only
	// re-check determinism against the first.
	validate bool
	// small shrinks the workload to SCALE 10 for the smoke test.
	small bool
	// corruptTree, a test hook, damages one output tree before validation so
	// the smoke test can see fail_frac move.
	corruptTree bool
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// opDesc says what one "op" is on this workload.
	opDesc string
	run    func(ctx *runCtx) (*pass, error)
	// diagnose runs the workload's untimed per-layer diagnostics (extra
	// passes, micro-loops); nil when it has none.
	diagnose func(ctx *runCtx, out map[string]float64) error
	// seededGraph marks a workload with no sampled input of its own
	// (pr-tails): there the run seed draws the graph.
	seededGraph bool
}

// graphSeedOverride is -graph-seed: 0 keeps every workload's frozen graph.
var graphSeedOverride uint64

// ctx returns the inputs of one pass of w. The BFS workloads run on a
// FROZEN Kronecker instance and let the seed draw the search keys, update
// stream and arrival schedule: which levels a hybrid BFS runs top-down is a
// property of the whole graph, so a seed-drawn graph moves every sim_*
// metric by 15-20% from seed to seed and would bury any change smaller than
// that. -graph-seed substitutes another instance (the held-out check).
func (w *workload) ctx(seed uint64, small bool) *runCtx {
	ctx := &runCtx{seed: seed, graphSeed: frozenGraphSeed, small: small}
	if w.seededGraph {
		ctx.graphSeed = seed
	}
	if graphSeedOverride != 0 {
		ctx.graphSeed = graphSeedOverride
	}
	return ctx
}

// sample is one reported metric value.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or mean (0 = not a
	// distribution statistic).
	N int `json:"n,omitempty"`
	// Spread is the relative range of the per-pass values behind a host
	// metric, (max - min) / median; -compare calls a pairing unresolved
	// when it exceeds the metric's bound.
	Spread float64 `json:"spread,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Passes    int               `json:"passes"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"sim_digest"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	PerLayer  map[string]sample `json:"per_layer,omitempty"`
	SelfTimes []selfTimeRow     `json:"trace_self_times,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	WallS     float64           `json:"wall_s"`
}

// minPasses is how many set-ups a run measures at least, so that setup_s
// is a median and every op has several host readings to take the fastest of.
const minPasses = 3

// measure runs passes of w for about the given number of seconds and folds
// them into the end-to-end metrics. The first pass validates outputs; every
// later pass must reproduce its virtual-clock digest exactly.
func measure(w *workload, seed uint64, seconds float64, small bool) (*runResult, error) {
	start := time.Now()
	var passes []*pass
	for {
		ctx := w.ctx(seed, small)
		ctx.validate = len(passes) == 0
		t0 := time.Now()
		p, err := w.run(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, len(passes), err)
		}
		passes = append(passes, p)
		// Return the pass's graph to the OS before the next set-up, so peak
		// RSS reflects one system, not how many passes the budget allowed.
		debug.FreeOSMemory()
		last := time.Since(t0).Seconds()
		elapsed := time.Since(start).Seconds()
		if len(passes) >= minPasses && elapsed+last > seconds {
			break
		}
	}
	res := fold(w, seed, passes)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// fold reduces passes to the end-to-end metrics. Virtual-clock metrics come
// from the first pass (all passes agree, or the run fails); setup_s and the
// allocation metrics are medians across passes; host times take each op's
// fastest reading (bestPerOp).
func fold(w *workload, seed uint64, passes []*pass) *runResult {
	first := passes[0]
	res := &runResult{
		Workload: w.name, Seed: seed, Passes: len(passes),
		Digest: first.digestSum(), EndToEnd: map[string]sample{},
		Notes: append([]string(nil), first.notes...),
	}
	var setups, allocs, bytes []float64
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if d := p.digestSum(); d != res.Digest {
			// The virtual clock is the instrument: a pass that disagrees
			// with the first on any virtual value fails all its ops.
			res.Failed += p.attempted - p.failed
			res.Notes = append(res.Notes, fmt.Sprintf(
				"FAIL: pass %d virtual-clock digest %s != pass 0 digest %s", i, d, res.Digest))
			for j := range p.digest {
				if j < len(first.digest) && p.digest[j] != first.digest[j] {
					res.Notes = append(res.Notes, fmt.Sprintf("  first difference: %q vs %q", first.digest[j], p.digest[j]))
					break
				}
			}
		}
		setups = append(setups, p.steps.total())
		n := float64(p.meter.ops)
		allocs = append(allocs, ratio(float64(p.meter.mallocs), n))
		bytes = append(bytes, ratio(float64(p.meter.bytes), n))
	}
	var teps, simS []float64
	for _, op := range first.sim {
		simS = append(simS, op.simS)
		teps = append(teps, ratio(float64(op.edges), op.tepsS))
	}
	e := res.EndToEnd
	host := func(xs []float64, unit string, n int) sample {
		return sample{Value: median(xs), Unit: unit, N: n, Spread: spread(xs)}
	}
	e["setup_s"] = host(setups, "s", len(setups))
	e["sim_teps_hmean"] = sample{Value: harmonicMean(teps), Unit: "edges/s", N: len(teps)}
	e["sim_teps_q1"] = sample{Value: quantile(teps, 0.25), Unit: "edges/s", N: len(teps)}
	e["sim_op_s_p50"] = sample{Value: quantile(simS, 0.50), Unit: "s", N: len(simS)}
	e["sim_op_s_tail"] = sample{Value: tail(simS), Unit: "s", N: len(simS)}
	// Every pass times the same ops in the same order, and interference
	// from the shared machine only ever adds time, so each op's host time is
	// its fastest reading over the passes; the metrics are statistics over
	// ops of those readings.
	best, calmS, opSpread := bestPerOp(passes)
	e["host_op_ms_p50"] = sample{Value: median(best), Unit: "ms", N: len(best), Spread: opSpread}
	e["host_allocs_per_op"] = host(allocs, "count", len(passes))
	e["host_bytes_per_op"] = host(bytes, "B", len(passes))
	e["host_peak_rss_mb"] = sample{Value: peakRSSMiB(), Unit: "MiB"}
	res.PerLayer = map[string]sample{
		"host_op_ms_p90":   {Value: quantile(best, 0.90), Unit: "ms", N: len(best), Spread: opSpread},
		"host_edges_per_s": {Value: ratio(float64(first.examined), calmS), Unit: "edges/s", N: len(best), Spread: opSpread},
	}
	return res
}

// bestPerOp returns each timed call's fastest host reading over the passes
// (ms per op), the host seconds the ops take at those readings, and the
// relative range of the per-pass medians (how much the passes disagreed).
func bestPerOp(passes []*pass) (best []float64, calmS, passSpread float64) {
	first := passes[0].meter
	best = append([]float64(nil), first.hostMs...)
	medians := make([]float64, len(passes))
	for i, p := range passes {
		medians[i] = median(p.meter.hostMs)
		for j, ms := range p.meter.hostMs {
			if j < len(best) && ms < best[j] {
				best[j] = ms
			}
		}
	}
	for j, ms := range best {
		calmS += ms * float64(first.opsPer[j]) / 1e3
	}
	return best, calmS, spread(medians)
}

// perLayer runs the traced side of a workload: one untraced pass for the
// counters, one traced pass for the spans (which must reproduce the untraced
// pass's trees and virtual times), and the workload's diagnostics.
func perLayer(w *workload, seed uint64, small bool, tracePath string) (*runResult, error) {
	start := time.Now()
	ctx := w.ctx(seed, small)
	ctx.validate = true
	plain, err := w.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}
	debug.FreeOSMemory()
	tr := newTracer()
	ctx = w.ctx(seed, small)
	ctx.validate, ctx.tr = true, tr
	traced, err := w.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	debug.FreeOSMemory()
	res := fold(w, seed, []*pass{plain, traced})
	out := map[string]float64{}
	for k, v := range plain.layer {
		out[k] = v
	}
	// Set-up steps double as per-layer metrics, from the untraced pass
	// (the generator and engine-constructor steps are reported as rates or
	// only through setup_s).
	for k, v := range plain.steps {
		if k != "generator.s" && k != "engine.s" {
			out[k] = v
		}
	}
	out["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	out["sim_dram_frac"] = ratio(float64(plain.dram), float64(plain.raw))
	for k, s := range res.PerLayer { // the host statistics fold derives
		out[k] = s.Value
	}
	out["bench.trace_overhead_frac"] = ratio(
		traced.meter.totalSeconds()-plain.meter.totalSeconds(), plain.meter.totalSeconds())
	if w.diagnose != nil {
		if err := w.diagnose(w.ctx(seed, small), out); err != nil {
			return nil, fmt.Errorf("%s diagnostics: %w", w.name, err)
		}
	}
	res.PerLayer = map[string]sample{}
	for _, m := range perLayerMetrics {
		res.PerLayer[m.Name] = sample{Value: out[m.Name], Unit: m.Unit}
		delete(out, m.Name)
	}
	for k := range out {
		res.Notes = append(res.Notes, "undeclared per-layer metric dropped: "+k)
	}
	rows, _ := tr.selfTimes()
	res.SelfTimes = rows
	if tracePath != "" {
		if err := tr.writeChrome(tracePath); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

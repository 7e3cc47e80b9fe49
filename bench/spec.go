package main

// This file is the benchmark's definition: the metric names, units,
// directions and bounds that BENCHMARK.json publishes (bench_test.go keeps
// the two in step), and which end-to-end metric on which workload each
// per-layer metric is expected to move.

// The seeds. Every input — graph, root sample, update stream, arrival
// schedule — derives from the run's seed. Claims are developed on
// defaultSeed and must also hold on heldOutSeed, which no tuning run uses.
const (
	defaultSeed = 12345
	heldOutSeed = 500214
	// frozenGraphSeed generates the Kronecker instance of every workload
	// except pr-tails (see workload.ctx).
	frozenGraphSeed = 12345
)

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change is a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an end-to-end metric, what it means.
	Moves string
}

// endToEndMetrics are reported by every workload with -trace 0.
//
// Two clocks, always labelled: sim_* is virtual time of the modelled
// machine; host_* and setup_s are wall time, allocations and memory of the
// simulator. The sim_* values are exact for a fixed seed (one real worker),
// but the driver compares medians over runs with different seeds, so every
// bound is at least three times the widest spread (IQR / median over ten
// seeds) measured on any workload, README "Steadiness"; the host-time
// bounds are the contract's maximum because this shared host is that noisy.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host seconds in the program's set-up calls (generate, build, offload/encode, engine construction); median over the run's passes"},
	{"sim_teps_hmean", "edges/s", "higher", 0.20, "harmonic mean over ops of edges per virtual second (Graph500 TEPS; pulled edges on pr-tails; per-query edges over latency on serve-pcie)"},
	{"sim_teps_q1", "edges/s", "higher", 0.25, "first quartile of per-op TEPS: the slow-op tail"},
	{"sim_op_s_p50", "s", "lower", 0.15, "median virtual seconds per op"},
	{"sim_op_s_tail", "s", "lower", 0.20, "tail virtual seconds per op: the highest percentile with ten samples beyond it (p99 of serve-pcie's 1,200 queries, p96 of 256 ops, p83 of 64)"},
	{"host_op_ms_p50", "ms", "lower", 0.25, "median over ops of host milliseconds per timed op, each op at its fastest reading over the run's passes"},
	{"host_allocs_per_op", "count", "lower", 0.20, "heap allocations per timed op (runtime.MemStats.Mallocs); median over passes"},
	{"host_bytes_per_op", "B", "lower", 0.15, "heap bytes allocated per timed op (TotalAlloc); median over passes"},
	{"host_peak_rss_mb", "MiB", "lower", 0.25, "peak resident set of the benchmark process (VmHWM)"},
}

// perLayerMetrics are reported by every workload with -trace 1; a layer
// that does no work on a workload reports 0 there (the bypass prediction).
var perLayerMetrics = []metricDef{
	// Workload-specific end-to-end quantities. The driver's contract wants
	// every bounded metric on every workload, so these live here.
	{"sim_goodput_qps", "1/s", "higher", 0, "serve-pcie phase B: queries served within deadline per virtual second under 1.5x overload"},
	{"sim_update_us", "us", "lower", 0, "dyn-pcie: virtual us per durable update, all-in (WAL + overlay + repair + amortised compaction)"},
	{"sim_recover_s", "s", "lower", 0, "dyn-pcie: virtual seconds to reopen after close (manifest + WAL replay)"},
	{"fail_frac", "ratio", "lower", 0, "ops that errored, failed validation or (serve phase A) were shed/expired, over ops attempted"},
	{"sim_dram_frac", "ratio", "lower", 0, "all: DRAM-resident bytes (graph arrays + cache budgets + overlays + engine status data) over the bytes of both CSR graphs"},
	{"host_edges_per_s", "edges/s", "higher", 0, "all: simulator speed, edges examined by the engines (an exact count) per host second of timed ops; moves with host_op_ms_p50"},
	{"host_op_ms_p90", "ms", "lower", 0, "p90 host ms per timed op, all workloads"},
	{"bench.trace_overhead_frac", "ratio", "lower", 0, "host time of the traced pass over the untraced pass, minus 1"},

	{"generator.edges_per_s", "edges/s", "higher", 0, "setup_s, all"},
	{"csr.build_forward_s", "s", "lower", 0, "setup_s, all; dominant on g500-dram"},
	{"csr.build_backward_s", "s", "lower", 0, "setup_s, all; dominant on g500-dram"},
	{"semiext.offload_forward_s", "s", "lower", 0, "setup_s on g500-pcie, td-ssd-stack, serve-pcie, pr-tails"},
	{"semiext.offload_backward_s", "s", "lower", 0, "setup_s on pr-tails"},
	{"semiext.compress_ratio", "ratio", "higher", 0, "sim_teps_hmean on td-ssd-stack; sim_op_s_p50 on pr-tails"},
	{"semiext.decoded_hit_ratio", "ratio", "higher", 0, "sim_teps_hmean, host_op_ms_p50 on td-ssd-stack"},
	{"semiext.neighbors_ns", "ns", "lower", 0, "host_op_ms_p50 on td-ssd-stack (host ns per warm ForwardReader.Neighbors)"},
	{"semiext.tail_reads", "count", "lower", 0, "sim_op_s_p50 on pr-tails"},
	{"semiext.overlay_bytes", "B", "lower", 0, "sim_dram_frac on dyn-pcie"},
	{"enc.encode_mb_per_s", "MB/s", "higher", 0, "setup_s on td-ssd-stack"},
	{"enc.decode_mb_per_s", "MB/s", "higher", 0, "host_op_ms_p50 on td-ssd-stack, pr-tails"},

	{"nvm.device.reads", "count", "lower", 0, "sim_teps_hmean, sim_teps_q1 on td-ssd-stack; none on g500-dram"},
	{"nvm.device.read_bytes", "B", "lower", 0, "sim_teps_hmean on td-ssd-stack"},
	{"nvm.device.avg_queue", "count", "lower", 0, "sim_teps_q1 on td-ssd-stack (iostat avgqu-sz)"},
	{"nvm.device.avg_req_sectors", "count", "higher", 0, "sim_teps_hmean on td-ssd-stack (iostat avgrq-sz)"},
	{"nvm.device.await_us", "us", "lower", 0, "sim_teps_q1 on td-ssd-stack (queue wait + service per request)"},
	{"nvm.cache.hit_ratio", "ratio", "higher", 0, "sim_teps_hmean on td-ssd-stack"},
	{"nvm.cache.evictions", "count", "lower", 0, "sim_teps_hmean on td-ssd-stack"},
	{"nvm.async.coalesce_ratio", "ratio", "higher", 0, "sim_teps_hmean on td-ssd-stack (logical reads per media request)"},
	{"nvm.async.prefetch_useful_ratio", "ratio", "higher", 0, "sim_teps_hmean on td-ssd-stack (prefetched pages later hit)"},
	{"nvm.mirror.replica_imbalance", "ratio", "lower", 0, "sim_teps_q1 on td-ssd-stack (max / mean reads per replica)"},
	{"nvm.mirror.failovers", "count", "lower", 0, "fail_frac on td-ssd-stack"},
	{"nvm.retry.retries", "count", "lower", 0, "sim_teps_q1 on td-ssd-stack"},
	{"nvm.checksum.verified_blocks", "count", "lower", 0, "host_op_ms_p50 on td-ssd-stack"},
	{"nvm.stack.read_hit_ns", "ns", "lower", 0, "host_op_ms_p50 on td-ssd-stack (4 KiB ReadAt, cached, full stack)"},
	{"nvm.stack.read_miss_ns", "ns", "lower", 0, "host_op_ms_p50 on td-ssd-stack (4 KiB ReadAt, uncached, full stack)"},
	{"nvm.stack.read_allocs", "count", "lower", 0, "host_allocs_per_op on td-ssd-stack"},
	{"nvm.memstore.write_mb_per_s", "MB/s", "higher", 0, "setup_s on every NVM workload (sequential append)"},
	{"nvm.wal.appends", "count", "lower", 0, "sim_update_us on dyn-pcie"},
	{"nvm.wal.bytes", "B", "lower", 0, "sim_update_us on dyn-pcie"},
	{"nvm.wal.append_sim_us", "us", "lower", 0, "sim_update_us on dyn-pcie"},

	{"bitmap.scan_ns_per_word", "ns", "lower", 0, "host_op_ms_p50 on g500-dram"},
	{"bitmap.lanes_claim_ns_per_word", "ns", "lower", 0, "host_op_ms_p50 on serve-pcie"},

	{"bfs.td_levels", "count", "lower", 0, "sim_teps_hmean on g500-*"},
	{"bfs.bu_levels", "count", "lower", 0, "sim_teps_hmean on g500-*"},
	{"bfs.switches", "count", "lower", 0, "sim_teps_hmean on g500-*"},
	{"bfs.examined_td", "count", "lower", 0, "sim_teps_hmean on g500-*, td-ssd-stack"},
	{"bfs.examined_bu", "count", "lower", 0, "sim_teps_hmean on g500-*"},
	{"bfs.examined_nvm", "count", "lower", 0, "sim_teps_hmean on g500-pcie, td-ssd-stack"},
	{"bfs.td_sim_frac", "ratio", "lower", 0, "sim_teps_hmean on g500-pcie (share of virtual time in top-down levels)"},
	{"bfs.repair_sim_us", "us", "lower", 0, "sim_update_us on dyn-pcie"},
	{"bfs.repair_host_us", "us", "lower", 0, "host_op_ms_p50 on dyn-pcie"},
	{"bfs.repair_vs_rebuild", "ratio", "lower", 0, "sim_update_us on dyn-pcie (repair virtual time over a full BFS's)"},
	{"bfs.degraded_runs", "count", "lower", 0, "fail_frac, all BFS workloads"},
	{"bfs.par_speedup", "ratio", "higher", 0, "none end-to-end (one real worker is pinned); g500-dram host time at 1 vs nproc real workers"},
	{"vtime.workers_skew", "ratio", "lower", 0, "none end-to-end; td-ssd-stack spread of virtual time over RealWorkers {1,2} x 3 repeats (ROADMAP item 1)"},
	{"validate.host_ms_per_tree", "ms", "lower", 0, "none (harness cost, kept inside the time cap)"},

	{"serve.wait_p50_s", "s", "lower", 0, "sim_op_s_p50 on serve-pcie"},
	{"serve.wait_p99_s", "s", "lower", 0, "sim_op_s_p99 on serve-pcie"},
	{"serve.lane_occupancy", "ratio", "higher", 0, "sim_goodput_qps on serve-pcie"},
	{"serve.steps", "count", "lower", 0, "host_op_ms_p50, sim_goodput_qps on serve-pcie"},
	{"serve.mean_queue_depth", "count", "lower", 0, "sim_op_s_p99 on serve-pcie"},
	{"serve.shed", "count", "lower", 0, "sim_goodput_qps on serve-pcie"},
	{"serve.expired", "count", "lower", 0, "sim_goodput_qps on serve-pcie"},
	{"serve.host_us_per_step", "us", "lower", 0, "host_op_ms_p50 on serve-pcie"},

	{"dyn.apply_sim_us_per_update", "us", "lower", 0, "sim_update_us on dyn-pcie"},
	{"dyn.apply_host_us_per_update", "us", "lower", 0, "host_op_ms_p50 on dyn-pcie"},
	{"dyn.compactions", "count", "lower", 0, "sim_update_us on dyn-pcie"},
	{"dyn.compact_sim_s", "s", "lower", 0, "sim_update_us, sim_op_s_p99 on dyn-pcie"},
	{"dyn.compact_host_s", "s", "lower", 0, "host_op_ms_p50 on dyn-pcie"},
	{"dyn.recover_host_s", "s", "lower", 0, "sim_recover_s on dyn-pcie (its host cost)"},

	{"cluster.comm_bytes_per_bfs", "B", "lower", 0, "sim_teps_hmean on grid-4x4"},
	{"cluster.td_bytes", "B", "lower", 0, "sim_teps_hmean on grid-4x4"},
	{"cluster.bu_allgather_bytes", "B", "lower", 0, "sim_teps_hmean on grid-4x4"},
	{"cluster.bu_ring_bytes", "B", "lower", 0, "sim_teps_hmean on grid-4x4"},
	{"cluster.control_bytes", "B", "lower", 0, "sim_teps_hmean on grid-4x4"},
	{"cluster.comm_sim_frac", "ratio", "lower", 0, "sim_teps_hmean on grid-4x4 (virtual time lost to the interconnect)"},
	{"cluster.wire_ratio", "ratio", "higher", 0, "sim_teps_hmean on grid-4x4 (raw wire bytes over encoded)"},
	{"cluster.new_s", "s", "lower", 0, "setup_s on grid-4x4"},

	{"vp.pr_iters", "count", "lower", 0, "sim_op_s_p50 on pr-tails"},
	{"vp.pr_sim_s_per_run", "s", "lower", 0, "sim_op_s_p50 on pr-tails"},
	{"vp.pull_edges_per_iter", "count", "lower", 0, "sim_op_s_p50 on pr-tails"},

	{"core.degradation_pct", "%", "lower", 0, "fidelity: TEPS loss of g500-pcie vs DRAM-only on the same roots (paper: 19.18)"},
	{"power.mteps_per_w", "MTEPS/W", "higher", 0, "fidelity: modelled efficiency of g500-pcie on the paper's machine"},
}

// workloads is the benchmark's seven workloads, in report order.
var workloads = []*workload{
	g500DRAM, g500PCIe, tdSSDStack, servePCIe, dynPCIe, grid4x4, prTails,
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

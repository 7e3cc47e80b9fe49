package main

import (
	"fmt"
	"runtime"
	"time"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// edgeFactor is the Graph500 edge factor every workload uses.
const edgeFactor = 16

// topology is the modelled machine: the paper's 4 sockets x 12 cores.
var topology = numa.DefaultTopology

// stepTimes holds the host seconds of each set-up call, by per-layer
// metric name; their sum is the pass's setup_s.
type stepTimes map[string]float64

func (s stepTimes) total() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// timeStep runs one set-up call inside a span and books its host time.
func timeStep(tr *tracer, steps stepTimes, metric, layer, name string, fn func() error) error {
	t0 := time.Now()
	err := tr.do(layer, name, nil, fn)
	steps[metric] += time.Since(t0).Seconds()
	// Collect the step's garbage off the clock: host_peak_rss_mb then
	// follows the steps' working sets, not where the collector's cycles
	// happened to fall (which alone moved it by 20% between runs).
	runtime.GC()
	return err
}

// genGraph generates the seeded Kronecker edge list (one generator worker,
// like every engine in the harness).
func genGraph(tr *tracer, p *pass, scale int, seed uint64) (*edgelist.List, error) {
	var list *edgelist.List
	err := timeStep(tr, p.steps, "generator.s", "generator", "Generate", func() error {
		var err error
		list, err = generator.Generate(generator.Config{
			Scale: scale, EdgeFactor: edgeFactor, Seed: seed, Workers: 1,
		})
		return err
	})
	if err == nil {
		p.layer["generator.edges_per_s"] = ratio(float64(len(list.Edges)), p.steps["generator.s"])
	}
	return list, err
}

// scaled returns sc with the device latencies made scale-equivalent to
// the paper's SCALE 27 instance, as EXPERIMENTS.md does.
func scaled(sc core.Scenario, scale int) core.Scenario {
	if sc.HasNVM() {
		sc.LatencyScale = nvm.ScaleEquivalenceFactor(scale, 27)
	}
	return sc
}

// system is a graph placed per a scenario, assembled by the harness one
// layer call at a time (the pipeline of core.Build, unrolled) so that each
// layer's set-up cost is timed on its own and the media under the storage
// stacks can be the harness's traced store.
type system struct {
	list *edgelist.List
	src  edgelist.ListSource
	part *numa.Partition
	deg  []int64

	fwd  bfs.ForwardAccess
	bwd  bfs.BackwardAccess
	sf   *semiext.SemiForward // nil when the forward graph stays in DRAM
	hb   *semiext.HybridBackward
	devs []*nvm.Device

	// rawBytes is the size of both CSR graphs built in DRAM, before any
	// offload: the denominator of sim_dram_frac. fwdRaw is the forward
	// graph's share.
	rawBytes, fwdRaw int64
}

// dramBytes is the graph's share of sim_dram_frac's numerator: graph arrays
// left in DRAM plus every DRAM budget the storage stacks hold (page cache,
// decoded-hub cache) plus the dynamic overlays. Workloads add their
// engine's status data.
func (s *system) dramBytes() int64 {
	b := s.hb.DRAMBytes() + overlayBytes(s.hb.Overlay())
	if s.sf != nil {
		return b + s.sf.DRAMBytes() + overlayBytes(s.sf.Overlay())
	}
	return b + s.fwdRaw
}

func overlayBytes(o *semiext.DeltaOverlay) int64 {
	if o == nil {
		return 0
	}
	adds, dels := o.Counts()
	return (adds + dels) * 8
}

func (s *system) stacks() []nvm.Storage {
	out := s.hb.Stacks()
	if s.sf != nil {
		out = append(out, s.sf.Stacks()...)
	}
	return out
}

func (s *system) layerTotals() nvm.StackStats { return nvm.CollectStacks(s.stacks()...) }

// close releases whatever stacks the system has built so far.
func (s *system) close() error {
	var first error
	if s.sf != nil {
		first = s.sf.Close()
	}
	if s.hb != nil {
		if err := s.hb.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newDevices creates the scenario's device array, one device per replica.
func newDevices(sc core.Scenario) []*nvm.Device {
	if !sc.HasNVM() {
		return nil
	}
	profile := sc.Device.WithLatencyScale(sc.LatencyScale)
	n := sc.Replicas
	if n < 1 {
		n = 1
	}
	devs := make([]*nvm.Device, n)
	for i := range devs {
		devs[i] = nvm.NewDevice(profile, 0)
	}
	return devs
}

// mediaFactory is the base StoreFactory: in-memory media on the replica's
// device, behind the traced store when a tracer is given.
func mediaFactory(tr *tracer, devs []*nvm.Device) semiext.StoreFactory {
	return func(name string, chunk int) (nvm.Storage, error) {
		var dev *nvm.Device
		if len(devs) > 0 {
			dev = devs[0]
			if i := nvm.ReplicaIndex(name); i >= 0 {
				dev = devs[i%len(devs)]
			}
		}
		return traceBase(tr, nvm.NewNamedMemStore(name, dev, chunk)), nil
	}
}

func forwardOptions(sc core.Scenario) semiext.ForwardOptions {
	return semiext.ForwardOptions{
		CacheBytes:       sc.CacheBytes,
		ReadaheadBlocks:  sc.ReadaheadBlocks,
		Replicas:         sc.Replicas,
		Checksums:        sc.Checksums,
		Compress:         sc.Compress,
		QueueDepth:       sc.QueueDepth,
		FrontierPrefetch: sc.FrontierPrefetch,
	}
}

// buildSystem places list per sc: BuildForward, OffloadForward,
// BuildBackward, OffloadBackward, each a timed step.
func buildSystem(tr *tracer, steps stepTimes, list *edgelist.List, sc core.Scenario) (*system, error) {
	src := edgelist.ListSource{List: list}
	s := &system{
		list: list, src: src,
		part: numa.NewPartition(topology, int(list.NumVertices)),
		devs: newDevices(sc),
	}
	mk := mediaFactory(tr, s.devs)
	clock := vtime.NewClock(0)

	var fg *csr.ForwardGraph
	err := timeStep(tr, steps, "csr.build_forward_s", "csr", "BuildForward", func() error {
		var err error
		fg, err = csr.BuildForward(src, s.part)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.fwdRaw = fg.Bytes()
	s.rawBytes = s.fwdRaw
	if sc.ForwardOnNVM {
		err = timeStep(tr, steps, "semiext.offload_forward_s", "semiext", "OffloadForward", func() error {
			var err error
			s.sf, err = semiext.OffloadForward(fg, mk, clock, forwardOptions(sc))
			return err
		})
		if err != nil {
			return nil, err
		}
		s.fwd = bfs.NVMForward{SF: s.sf}
	} else {
		s.fwd = bfs.DRAMForward{G: fg}
	}

	var bg *csr.BackwardGraph
	err = timeStep(tr, steps, "csr.build_backward_s", "csr", "BuildBackward", func() error {
		var err error
		bg, err = csr.BuildBackward(src, s.part, csr.SortByDegreeDesc)
		return err
	})
	if err != nil {
		return nil, s.closeAfter(err)
	}
	s.rawBytes += bg.Bytes()
	bwdOpts := semiext.BackwardOptions{KeepEdges: sc.BackwardDRAMEdgeLimit}
	if sc.BackwardDRAMEdgeLimit > 0 {
		bwdOpts.Checksums, bwdOpts.Replicas = sc.Checksums, sc.Replicas
		bwdOpts.Compress, bwdOpts.QueueDepth = sc.Compress, sc.QueueDepth
		if s.sf != nil {
			bwdOpts.Cache = s.sf.Cache()
		}
	}
	// With nothing to offload the call only wraps the CSR arrays; it is
	// booked with engine construction so that a DRAM placement reports no
	// semiext activity at all.
	step := "engine.s"
	if bwdOpts.KeepEdges > 0 {
		step = "semiext.offload_backward_s"
	}
	err = timeStep(tr, steps, step, "semiext", "OffloadBackward", func() error {
		var err error
		s.hb, err = semiext.OffloadBackward(bg, mk, clock, bwdOpts)
		return err
	})
	if err != nil {
		return nil, s.closeAfter(err)
	}
	s.bwd = bfs.HybridBackwardAccess{HB: s.hb}

	if s.deg, err = csr.Degrees(src); err != nil {
		return nil, s.closeAfter(err)
	}
	// Construction traffic is not part of any op's device statistics.
	for _, d := range s.devs {
		d.Reset()
	}
	return s, nil
}

// closeAfter releases a half-built system on a set-up error.
func (s *system) closeAfter(err error) error {
	s.close()
	return err
}

// bfsConfig pins the engine to one real worker: virtual time is then
// exactly reproducible and host numbers measure the program, not the
// scheduler.
func bfsConfig(mode bfs.Mode) bfs.Config {
	return bfs.Config{Topology: topology, Alpha: 1e4, Beta: 1e5, Mode: mode, RealWorkers: 1}
}

// newRunner constructs the BFS engine as a timed set-up step.
func (s *system) newRunner(tr *tracer, steps stepTimes, cfg bfs.Config) (*bfs.Runner, error) {
	var r *bfs.Runner
	err := timeStep(tr, steps, "engine.s", "bfs", "NewRunner", func() error {
		var err error
		r, err = bfs.NewRunner(s.fwd, s.bwd, s.part, cfg)
		return err
	})
	return r, err
}

// deviceLog accumulates the device array's statistics. Devices keep their
// queue state in absolute virtual time, so a workload that alternates
// between engines with separate clocks resets them at every switch (as
// graph500.RunOnSystem and cluster.Grid.Run do per run); flush banks the
// statistics first.
type deviceLog struct {
	devs              []*nvm.Device
	readsBy           []int64 // per replica
	reads, readBytes  int64
	queueSum, waitSum float64 // request-weighted
	sectorsSum        float64
}

func newDeviceLog(devs []*nvm.Device) *deviceLog {
	return &deviceLog{devs: devs, readsBy: make([]int64, len(devs))}
}

// flush banks every device's statistics since the last reset, then resets.
func (l *deviceLog) flush() {
	for i, d := range l.devs {
		st := d.Snapshot()
		n := float64(st.Reads + st.Writes)
		l.readsBy[i] += st.Reads
		l.reads += st.Reads
		l.readBytes += st.ReadBytes
		l.queueSum += st.AvgQueueSize * n
		l.sectorsSum += st.AvgRequestSectors * n
		l.waitSum += float64(st.AvgWait+st.AvgService) / float64(vtime.Microsecond) * n
		d.Reset()
	}
}

// discard resets the devices without banking (untimed harness traffic).
func (l *deviceLog) discard() {
	for _, d := range l.devs {
		d.Reset()
	}
}

// imbalance is max / mean reads per replica (0 without an array).
func (l *deviceLog) imbalance() float64 {
	if len(l.devs) < 2 || l.reads == 0 {
		return 0
	}
	var max int64
	for _, r := range l.readsBy {
		if r > max {
			max = r
		}
	}
	return float64(max) / (float64(l.reads) / float64(len(l.devs)))
}

// storageMetrics turns the cumulative stack counters and device statistics
// of a finished workload into the nvm.* / semiext.* count metrics.
func storageMetrics(out map[string]float64, layers nvm.StackStats, d *deviceLog, sf *semiext.SemiForward, tailReads int64) {
	d.flush()
	n := float64(d.reads)
	out["nvm.device.reads"] = n
	out["nvm.device.read_bytes"] = float64(d.readBytes)
	out["nvm.device.avg_queue"] = ratio(d.queueSum, n)
	out["nvm.device.avg_req_sectors"] = ratio(d.sectorsSum, n)
	out["nvm.device.await_us"] = ratio(d.waitSum, n)
	out["nvm.mirror.replica_imbalance"] = d.imbalance()

	hits, misses := float64(layers.Get("cache", "hits")), float64(layers.Get("cache", "misses"))
	out["nvm.cache.hit_ratio"] = ratio(hits, hits+misses)
	out["nvm.cache.evictions"] = float64(layers.Get("cache", "evictions"))
	// Logical reads entering the stacks per request that reached media.
	if layers.Get("async", "queue_depth") > 0 {
		out["nvm.async.coalesce_ratio"] = ratio(float64(layers.Get("metrics", "reads")), n)
	}
	out["nvm.async.prefetch_useful_ratio"] = ratio(
		float64(layers.Get("cache", "prefetch_hits")), float64(layers.Get("cache", "prefetches")))
	out["nvm.mirror.failovers"] = float64(layers.Get("mirror", "failovers"))
	out["nvm.retry.retries"] = float64(layers.Get("retry", "retries"))
	// Every media read under a checksum layer is verified block by block.
	if block := layers.Get("checksum", "block_bytes"); block > 0 {
		out["nvm.checksum.verified_blocks"] = float64((d.readBytes + block - 1) / block)
	}
	out["semiext.tail_reads"] = float64(tailReads)
	if sf != nil {
		out["semiext.compress_ratio"] = sf.CompressionRatio()
		h, m, _ := sf.DecodedCacheStats()
		out["semiext.decoded_hit_ratio"] = ratio(float64(h), float64(h+m))
	}
}

func describeScenario(sc core.Scenario) string {
	return fmt.Sprintf("%s compress=%v cache=%dB qd=%d prefetch=%d replicas=%d checksums=%v bwd-limit=%d",
		sc.Name, sc.Compress, sc.CacheBytes, sc.QueueDepth, sc.FrontierPrefetch, sc.Replicas, sc.Checksums, sc.BackwardDRAMEdgeLimit)
}

// Package core assembles the paper's offloading technique into runnable
// systems: it defines the three evaluation scenarios of Table I
// (DRAM-only, DRAM+PCIeFlash, DRAM+SSD), builds the forward/backward
// graphs with the placement each scenario prescribes, and plans placements
// automatically under a DRAM budget.
package core

import (
	"fmt"
	"path/filepath"

	"semibfs/internal/bfs"
	"semibfs/internal/cluster"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

// Scenario describes one DRAM/NVM configuration of Table I plus the
// placement policy the paper's technique applies to it.
type Scenario struct {
	// Name labels the scenario in reports ("DRAM-only", ...).
	Name string
	// DRAMCapacity is the machine's DRAM size (informational; the
	// planner uses it, the builder does not enforce it).
	DRAMCapacity int64
	// Device is the NVM device profile; zero Name means no NVM.
	Device nvm.Profile
	// ForwardOnNVM offloads the forward graph to the device.
	ForwardOnNVM bool
	// BackwardDRAMEdgeLimit keeps only the first k neighbors of each
	// vertex of the backward graph in DRAM (Section VI-E); 0 keeps the
	// whole backward graph in DRAM.
	BackwardDRAMEdgeLimit int
	// IndexInDRAM keeps the forward graph's index arrays in DRAM while
	// the value arrays go to NVM — an ablation; the paper stores both
	// on NVM.
	IndexInDRAM bool
	// LatencyScale multiplies the device's fixed request latencies
	// (see nvm.Profile.WithLatencyScale); 0 or 1 leaves them unscaled.
	LatencyScale float64
	// AggregateIO raises forward-graph request sizes from 4 KiB to
	// 128 KiB (the libaio-style aggregation the paper's Section VI-D
	// suggests as future work) — an ablation.
	AggregateIO bool
	// Faults injects deterministic seeded faults into every NVM store
	// (see internal/faults); the zero value injects nothing.
	Faults faults.Config
	// Checksums adds per-chunk CRC32-C verification to every NVM store,
	// so injected bit-flip corruption is detected (and retried) instead
	// of silently traversed.
	Checksums bool
	// CacheBytes, when positive, gives the forward graph's stores a
	// shared DRAM page cache of that budget (block = the request size,
	// FlashGraph's SAFS-style cache); 0 disables caching.
	CacheBytes int64
	// ReadaheadBlocks prefetches that many value blocks past each
	// adjacency read (requires CacheBytes > 0).
	ReadaheadBlocks int
	// Replicas, when > 1, mirrors the forward graph's stores across that
	// many simulated devices with independent fault streams; reads come
	// from the least-loaded healthy replica and fail over transparently.
	Replicas int
	// ScrubRate is the background scrubber's pace in blocks per virtual
	// second (0 disables scrubbing). Requires Replicas > 1 to repair
	// from, though a single replica still detects via checksums.
	ScrubRate float64
	// Compress stores the NVM adjacency (forward values, backward tails)
	// delta+varint encoded (internal/enc): fewer device bytes traded for
	// host decode time. CacheBytes stays the page cache's whole budget; its
	// pages then hold encoded bytes.
	Compress bool
	// QueueDepth, when positive, puts an asynchronous coalescing I/O
	// pipeline of that many virtual slots above each NVM store's cache
	// (nvm.AsyncStore); 0 keeps the synchronous request-at-a-time path.
	QueueDepth int
	// FrontierPrefetch caps how many upcoming frontier vertices each
	// worker announces for readahead per top-down chunk; 0 disables
	// frontier-driven prefetch. Requires CacheBytes > 0 to have effect.
	FrontierPrefetch int
	// GridRows / GridCols extend the scenario to a simulated R x C
	// cluster in which every machine carries this scenario's per-node
	// storage stack (see ClusterConfig). Both zero (or 1x1) keeps the
	// single-node system; rows 1 with cols P is the 1D layout.
	GridRows, GridCols int
}

// WithGrid returns the scenario laid out as an R x C cluster of nodes,
// each running this scenario's storage stack.
func (s Scenario) WithGrid(rows, cols int) Scenario {
	s.GridRows, s.GridCols = rows, cols
	return s
}

// ClusterConfig translates the scenario's per-node stack spec into a
// cluster configuration: the device profile, compression, checksums,
// mirroring, cache, async depth, and fault stream carry over unchanged,
// so a grid machine is exactly this scenario's single-node stack.
func (s Scenario) ClusterConfig() cluster.Config {
	return cluster.Config{
		Machines:     s.GridRows * s.GridCols,
		GridRows:     s.GridRows,
		GridCols:     s.GridCols,
		ForwardOnNVM: s.ForwardOnNVM,
		Device:       s.Device,
		LatencyScale: s.LatencyScale,
		Compress:     s.Compress,
		Checksums:    s.Checksums,
		Replicas:     s.Replicas,
		CacheBytes:   s.CacheBytes,
		QueueDepth:   s.QueueDepth,
		Faults:       s.Faults,
	}
}

// WithLatencyScale returns the scenario with its device latencies scaled.
func (s Scenario) WithLatencyScale(f float64) Scenario {
	s.LatencyScale = f
	return s
}

// WithCache returns the scenario with a forward-graph page cache of the
// given budget and readahead depth.
func (s Scenario) WithCache(budget int64, readahead int) Scenario {
	s.CacheBytes = budget
	s.ReadaheadBlocks = readahead
	return s
}

// WithReplicas returns the scenario with a mirrored device array of n
// replicas scrubbed at scrubRate blocks per virtual second.
func (s Scenario) WithReplicas(n int, scrubRate float64) Scenario {
	s.Replicas = n
	s.ScrubRate = scrubRate
	return s
}

// WithIO returns the scenario with the compressed-adjacency and async-
// pipeline knobs set: compress selects delta+varint NVM adjacency,
// queueDepth sizes the coalescing pipeline (0 = synchronous), and
// frontierPrefetch bounds per-chunk frontier readahead.
func (s Scenario) WithIO(compress bool, queueDepth, frontierPrefetch int) Scenario {
	s.Compress = compress
	s.QueueDepth = queueDepth
	s.FrontierPrefetch = frontierPrefetch
	return s
}

// scrubInterval converts ScrubRate (blocks per virtual second) into the
// mirror layer's per-step interval.
func (s Scenario) scrubInterval() vtime.Duration {
	if s.ScrubRate <= 0 {
		return 0
	}
	return vtime.Duration(float64(vtime.Second) / s.ScrubRate)
}

// HasNVM reports whether the scenario uses an NVM device.
func (s Scenario) HasNVM() bool { return s.Device.Name != "" }

// The paper's three machine configurations (Table I).
var (
	// ScenarioDRAMOnly: 128 GB DRAM, no NVM; every structure in DRAM.
	ScenarioDRAMOnly = Scenario{
		Name:         "DRAM-only",
		DRAMCapacity: 128 * GiB,
	}
	// ScenarioPCIeFlash: 64 GB DRAM + FusionIO ioDrive2; the forward
	// graph lives on the PCIe flash.
	ScenarioPCIeFlash = Scenario{
		Name:         "DRAM+PCIeFlash",
		DRAMCapacity: 64 * GiB,
		Device:       nvm.ProfileIoDrive2,
		ForwardOnNVM: true,
	}
	// ScenarioSSD: 64 GB DRAM + Intel SSD 320; the forward graph lives
	// on the SATA SSD.
	ScenarioSSD = Scenario{
		Name:         "DRAM+SSD",
		DRAMCapacity: 64 * GiB,
		Device:       nvm.ProfileSSD320,
		ForwardOnNVM: true,
	}
)

// Scenarios returns the paper's three configurations in report order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioDRAMOnly, ScenarioPCIeFlash, ScenarioSSD}
}

// BuildOptions control graph construction and store placement.
type BuildOptions struct {
	// Dir is the directory for store files; empty selects in-memory
	// stores (same timing model, no filesystem traffic).
	Dir string
	// SeriesBinWidth, when positive, enables the device's per-bin
	// request time series (Figures 12/13).
	SeriesBinWidth vtime.Duration
	// SortMode orders backward-graph adjacencies; the zero value is
	// csr.SortByDegreeDesc.
	SortMode csr.SortMode
	// ConstructClock, when non-nil, is charged for offload writes.
	ConstructClock *vtime.Clock
}

// System is a built instance: the two graphs placed per a scenario, ready
// to traverse.
type System struct {
	Scenario Scenario
	Part     *numa.Partition
	Forward  bfs.ForwardAccess
	Backward bfs.BackwardAccess
	// Devices is the per-replica device array (len 1 without mirroring,
	// nil for DRAM-only).
	Devices []*nvm.Device

	// DRAMForwardBytes etc. record where the bytes ended up.
	DRAMForwardBytes  int64
	DRAMBackwardBytes int64
	NVMForwardBytes   int64
	NVMBackwardBytes  int64

	semiFwd *semiext.SemiForward
	hybBwd  *semiext.HybridBackward
	dramFwd *csr.ForwardGraph
	dramBwd *csr.BackwardGraph
	hybrid  bool

	faultFactory *faults.Factory
}

// FaultCounters sums the injected-fault totals across all NVM stores.
func (s *System) FaultCounters() faults.Counters {
	if s.faultFactory == nil {
		return faults.Counters{}
	}
	return s.faultFactory.TotalCounters()
}

// HybridBackward exposes the hybrid backward graph when the scenario
// offloads backward-graph tails, or nil.
func (s *System) HybridBackward() *semiext.HybridBackward { return s.hybBwd }

// SemiForward exposes the semi-external forward graph when the scenario
// offloads it, or nil (the compression ratio lives there).
func (s *System) SemiForward() *semiext.SemiForward { return s.semiFwd }

// PageCache returns the forward graph's shared page cache, or nil when
// the scenario configures none.
func (s *System) PageCache() *nvm.PageCache {
	if s.semiFwd == nil {
		return nil
	}
	return s.semiFwd.Cache()
}

// DRAMBytes returns the total graph bytes resident in DRAM.
func (s *System) DRAMBytes() int64 { return s.DRAMForwardBytes + s.DRAMBackwardBytes }

// NVMBytes returns the total graph bytes resident on NVM.
func (s *System) NVMBytes() int64 { return s.NVMForwardBytes + s.NVMBackwardBytes }

// Close releases the system's NVM stores.
func (s *System) Close() error {
	var first error
	if s.semiFwd != nil {
		if err := s.semiFwd.Close(); err != nil {
			first = err
		}
	}
	if s.hybBwd != nil {
		if err := s.hybBwd.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewRunner returns a BFS runner over the system's graphs.
func (s *System) NewRunner(cfg bfs.Config) (*bfs.Runner, error) {
	return bfs.NewRunner(s.Forward, s.Backward, s.Part, cfg)
}

// NewBatchRunner returns a batched multi-source BFS runner over the
// system's graphs, traversing up to lanes sources per batch through the
// same shared store pair (and page cache) as the single-source runner.
func (s *System) NewBatchRunner(lanes int, cfg bfs.Config) (*bfs.BatchRunner, error) {
	return bfs.NewBatchRunner(s.Forward, s.Backward, s.Part, lanes, cfg)
}

// forwardOptions and backwardOptions are the one translation of the
// scenario's placement and I/O knobs into offload options, shared by Build
// and DynamicOptions. BackwardOptions.Cache is not a knob: the tails share
// the page cache of the forward graph they are offloaded next to.
func (s Scenario) forwardOptions() semiext.ForwardOptions {
	return semiext.ForwardOptions{
		IndexInDRAM:      s.IndexInDRAM,
		AggregateIO:      s.AggregateIO,
		CacheBytes:       s.CacheBytes,
		ReadaheadBlocks:  s.ReadaheadBlocks,
		Replicas:         s.Replicas,
		Mirror:           nvm.MirrorConfig{ScrubInterval: s.scrubInterval()},
		Checksums:        s.Checksums,
		Compress:         s.Compress,
		QueueDepth:       s.QueueDepth,
		FrontierPrefetch: s.FrontierPrefetch,
	}
}

func (s Scenario) backwardOptions() semiext.BackwardOptions {
	return semiext.BackwardOptions{
		KeepEdges:  s.BackwardDRAMEdgeLimit,
		Checksums:  s.Checksums,
		Replicas:   s.Replicas,
		Mirror:     nvm.MirrorConfig{ScrubInterval: s.scrubInterval()},
		Compress:   s.Compress,
		QueueDepth: s.QueueDepth,
	}
}

// Build constructs the forward and backward graphs from src and places
// them according to sc. Construction itself follows the paper's Step 2:
// both graphs are built in DRAM from the (possibly NVM-resident) edge
// list, then the forward graph is offloaded if the scenario says so.
func Build(src edgelist.Source, topo numa.Topology, sc Scenario, opts BuildOptions) (*System, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	part := numa.NewPartition(topo, int(src.NumVertices()))

	sys := &System{Scenario: sc, Part: part}
	device := func(string) *nvm.Device { return nil }
	if sc.HasNVM() {
		sys.Devices, device = nvm.NewReplicaDevices(sc.Device.WithLatencyScale(sc.LatencyScale),
			sc.Replicas, opts.SeriesBinWidth)
	} else if sc.ForwardOnNVM || sc.BackwardDRAMEdgeLimit > 0 {
		return nil, fmt.Errorf("core: scenario %q offloads data but has no device", sc.Name)
	} else if sc.Replicas > 1 || sc.ScrubRate > 0 {
		return nil, fmt.Errorf("core: scenario %q mirrors stores but has no device", sc.Name)
	} else if sc.Compress || sc.QueueDepth > 0 || sc.FrontierPrefetch > 0 {
		return nil, fmt.Errorf("core: scenario %q tunes NVM I/O but has no device", sc.Name)
	}

	base := func(name string, chunk int) (nvm.Storage, error) {
		if opts.Dir == "" {
			return nvm.NewNamedMemStore(name, device(name), chunk), nil
		}
		return nvm.CreateFileStore(filepath.Join(opts.Dir, name+".bin"), device(name), chunk)
	}
	// The base factory produces the media plus fault injection; every layer
	// above it — checksums, mirroring, cache, retry, metrics — is assembled
	// declaratively by nvm.BuildStack from the options below, so forward
	// stores and backward tails get the identical middleware pipeline.
	mk := base
	if sc.Faults.Enabled() {
		sys.faultFactory = faults.NewFactory(base, sc.Faults)
		mk = sys.faultFactory.Make
	}

	fg, err := csr.BuildForward(src, part)
	if err != nil {
		return nil, fmt.Errorf("core: build forward graph: %w", err)
	}
	if sc.ForwardOnNVM {
		sf, err := semiext.OffloadForward(fg, mk, opts.ConstructClock, sc.forwardOptions())
		if err != nil {
			return nil, err
		}
		sys.semiFwd = sf
		sys.Forward = bfs.NVMForward{SF: sf}
		sys.NVMForwardBytes = sf.NVMBytes()
		sys.DRAMForwardBytes = sf.DRAMBytes()
		fg = nil // release the DRAM copy
	} else {
		sys.dramFwd = fg
		sys.Forward = bfs.DRAMForward{G: fg}
		sys.DRAMForwardBytes = fg.Bytes()
	}

	bg, err := csr.BuildBackward(src, part, opts.SortMode)
	if err != nil {
		return nil, fmt.Errorf("core: build backward graph: %w", err)
	}
	if sc.BackwardDRAMEdgeLimit > 0 {
		// Tails ride the same declarative stack as the forward graph —
		// checksums, mirroring, retry — and share the forward graph's page
		// cache (when one exists), so one DRAM budget serves both graphs.
		bwdOpts := sc.backwardOptions()
		bwdOpts.Cache = sys.PageCache()
		hb, err := semiext.OffloadBackward(bg, mk, opts.ConstructClock, bwdOpts)
		if err != nil {
			return nil, err
		}
		sys.hybBwd = hb
		sys.Backward = bfs.HybridBackwardAccess{HB: hb}
		sys.DRAMBackwardBytes = hb.DRAMBytes()
		sys.NVMBackwardBytes = hb.NVMBytes()
	} else {
		// The all-DRAM case still flows through HybridBackward with
		// limit 0, which shares the CSR arrays (no copy) and gives
		// uniform scan accounting.
		hb, err := semiext.BuildHybridBackward(bg, 0, mk, opts.ConstructClock)
		if err != nil {
			return nil, err
		}
		sys.hybBwd = hb
		sys.dramBwd = bg
		sys.Backward = bfs.HybridBackwardAccess{HB: hb}
		sys.DRAMBackwardBytes = hb.DRAMBytes()
	}
	return sys, nil
}

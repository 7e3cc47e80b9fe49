// Package cluster implements the paper's stated future work ("applying
// our technique to multi-node environments"): a distributed-memory hybrid
// BFS in the style of Beamer et al. (MTAAP 2013), with the semi-external
// forward-graph offloading applied independently on every machine.
//
// The cluster is simulated the same way the single node is: the graph is
// block-partitioned across P machines (1D, or a 2D R x C grid — see
// Grid), each machine executes its real share of every BFS level, and
// time is modeled — each machine owns a virtual clock charged for its
// compute (scaled by its core count) and its NVM requests, and
// communication phases charge a latency + bandwidth network model.
// Every machine's offloaded adjacency is held in a real storage stack
// built by nvm.BuildStack — metrics, retry, async pipeline, page cache,
// mirroring, checksums, optional delta+varint compression — with
// per-machine fault streams, so node-level failure and recovery compose
// with the single-node failover machinery. The resulting BFS tree is
// exact, validated, and bit-identical to the single-node engine's.
//
// Communication structure per level:
//
//   - top-down: machines expand their local frontier; discoveries travel
//     as candidate (child, parent) pairs in wire-encoded per-destination
//     outboxes, and the owner arbitrates claims by minimum parent — the
//     same rule as the single-node engine's min-parent CAS, which is what
//     makes the parent trees bit-identical across topologies.
//   - bottom-up: each machine needs the whole frontier bitmap to test
//     "is this neighbor in the frontier?"; the next bitmap fragments are
//     allgathered (wire-encoded, run-length compressed when enabled) at
//     the end of every bottom-up level.
//   - direction switching uses the global frontier count (an allreduce,
//     charged as a log2(P) latency tree).
//
// Both layouts embed one scaffold (core.go: machines, status arrays, the
// level loop, the top-down exchange, barrier/allreduce/charge, the block
// writer); run.go and grid_run.go hold only the collectives that differ.
package cluster

import (
	"fmt"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// NetworkModel is the interconnect cost model.
type NetworkModel struct {
	// Latency is the per-message one-way latency.
	Latency vtime.Duration
	// Bandwidth is the per-link bandwidth in bytes/second.
	Bandwidth float64
}

// DefaultNetwork models a commodity InfiniBand-class interconnect.
var DefaultNetwork = NetworkModel{
	Latency:   5 * vtime.Microsecond,
	Bandwidth: 4e9,
}

// transfer returns the modeled time for moving n bytes point-to-point.
func (m NetworkModel) transfer(n int64) vtime.Duration {
	if n < 0 {
		n = 0
	}
	return m.Latency + vtime.Duration(float64(n)*1e9/m.Bandwidth)
}

// Config parameterizes a simulated cluster.
type Config struct {
	// Machines is the number of nodes P.
	Machines int
	// CoresPerMachine scales each machine's compute throughput.
	CoresPerMachine int
	// Cost is the per-core memory cost model; zero selects the default.
	Cost numa.CostModel
	// Net is the interconnect model; zero selects DefaultNetwork.
	Net NetworkModel
	// Alpha / Beta are the hybrid switching thresholds on the *global*
	// frontier size; zero selects 1e4 / 10*alpha.
	Alpha, Beta float64
	// GridRows / GridCols force an explicit R x C shape on BuildGrid
	// (their product must equal Machines, or Machines may be left 0 to
	// be derived); both zero picks the most square factorization.
	GridRows, GridCols int
	// ForwardOnNVM offloads every machine's forward adjacency to a
	// per-machine NVM storage stack — the paper's technique, per node.
	ForwardOnNVM bool
	// Device is the per-machine NVM profile (required when
	// ForwardOnNVM); zero selects the ioDrive2 profile.
	Device nvm.Profile
	// LatencyScale scales the device's fixed latencies (see
	// nvm.Profile.WithLatencyScale).
	LatencyScale float64
	// Compress stores each machine's offloaded adjacency delta+varint
	// encoded (internal/enc), and additionally compresses the wire
	// formats (run-length bitmaps, delta-encoded lists and pairs).
	// Requires ForwardOnNVM.
	Compress bool

	// Checksums enables per-replica CRC32-C verification on every
	// machine's stores.
	Checksums bool
	// Replicas > 1 mirrors each machine's stores across that many media
	// stores, each on its own simulated device, with scrub-driven repair
	// and failover exactly as the single-node stack.
	Replicas int
	// CacheBytes > 0 gives each machine a page cache of that budget,
	// shared by the machine's stores.
	CacheBytes int64
	// QueueDepth > 0 enables each machine's async coalescing I/O
	// pipeline (needs CacheBytes).
	QueueDepth int
	// Faults configures per-machine fault injection; FaultMachine
	// selects which machine's media it applies to (1-based; 0 = every
	// machine). Each selected machine gets its own faults.Factory, so
	// replica-death clauses (DieReplica) and power cuts are scoped to
	// one node, composing node failure with the mirror failover path.
	Faults       faults.Config
	FaultMachine int
	// RealWorkers > 1 executes per-machine work on that many OS
	// goroutines. Results are independent of worker count.
	RealWorkers int
	// WrapBase, when non-nil, wraps every media store as it is created
	// (innermost, below fault injection). Test hook for close tracking.
	WrapBase func(machine int, name string, inner nvm.Storage) nvm.Storage
}

// WithDefaults returns c with zero fields defaulted.
func (c Config) WithDefaults() Config {
	if c.Machines == 0 && c.GridRows > 0 && c.GridCols > 0 {
		c.Machines = c.GridRows * c.GridCols
	}
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.CoresPerMachine == 0 {
		c.CoresPerMachine = 48
	}
	if c.Cost == (numa.CostModel{}) {
		c.Cost = numa.DefaultCostModel
	}
	if c.Net == (NetworkModel{}) {
		c.Net = DefaultNetwork
	}
	if c.Alpha == 0 {
		c.Alpha = 1e4
	}
	if c.Beta == 0 {
		c.Beta = 10 * c.Alpha
	}
	if c.ForwardOnNVM && c.Device.Name == "" {
		c.Device = nvm.ProfileIoDrive2
	}
	if c.RealWorkers < 1 {
		c.RealWorkers = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Machines < 1 {
		return fmt.Errorf("cluster: %d machines", c.Machines)
	}
	if c.CoresPerMachine < 1 {
		return fmt.Errorf("cluster: %d cores per machine", c.CoresPerMachine)
	}
	if c.ForwardOnNVM {
		if err := c.Device.Validate(); err != nil {
			return err
		}
	}
	if c.Compress && !c.ForwardOnNVM {
		return fmt.Errorf("cluster: Compress requires ForwardOnNVM")
	}
	if !c.ForwardOnNVM && (c.Checksums || c.Replicas > 1 || c.CacheBytes > 0 || c.QueueDepth > 0) {
		return fmt.Errorf("cluster: storage stack options require ForwardOnNVM")
	}
	if (c.GridRows > 0) != (c.GridCols > 0) {
		return fmt.Errorf("cluster: grid shape needs both rows and cols (got %dx%d)",
			c.GridRows, c.GridCols)
	}
	if c.GridRows > 0 && c.GridRows*c.GridCols != c.Machines {
		return fmt.Errorf("cluster: grid shape %dx%d does not cover %d machines",
			c.GridRows, c.GridCols, c.Machines)
	}
	return nil
}

// nodeStacks is one machine's storage plumbing: its simulated devices
// (one per mirror replica), its page cache, its fault stream, and every
// stack built on them.
type nodeStacks struct {
	profile nvm.Profile
	devs    []*nvm.Device
	cache   *nvm.PageCache
	faults  *faults.Factory
	mk      nvm.BaseFactory
	stores  []nvm.Storage
	closed  bool
}

// newNodeStacks prepares machine idx's device/cache/fault plumbing. The
// base factory routes replica r (parsed from the "-r<i>" name suffix the
// mirror layer appends) onto the machine's r-th simulated device, so a
// DieReplica fault kills one whole device of one machine — the node-death
// scenario the failover machinery rescues.
func newNodeStacks(cfg Config, idx int) *nodeStacks {
	profile := cfg.Device
	if cfg.LatencyScale > 0 {
		profile = profile.WithLatencyScale(cfg.LatencyScale)
	}
	ns := &nodeStacks{profile: profile}
	if cfg.CacheBytes > 0 {
		ns.cache = nvm.NewPageCache(cfg.CacheBytes, nvm.DefaultChunkSize, cfg.Cost)
	}
	mk := func(name string, chunk int) (nvm.Storage, error) {
		r := nvm.ReplicaIndex(name)
		if r < 0 {
			r = 0
		}
		for len(ns.devs) <= r {
			ns.devs = append(ns.devs, nvm.NewDevice(profile, 0))
		}
		var st nvm.Storage = nvm.NewMemStore(ns.devs[r], chunk)
		if cfg.WrapBase != nil {
			st = cfg.WrapBase(idx, name, st)
		}
		return st, nil
	}
	ns.mk = mk
	if cfg.Faults.Enabled() && (cfg.FaultMachine == 0 || cfg.FaultMachine == idx+1) {
		ns.faults = faults.NewFactory(mk, cfg.Faults)
		ns.mk = ns.faults.Make
	}
	return ns
}

// build assembles one named stack over the machine's plumbing.
func (ns *nodeStacks) build(cfg Config, name string) (nvm.Storage, error) {
	st, err := nvm.BuildStack(nvm.StackSpec{
		Name:       name,
		Base:       ns.mk,
		Checksum:   cfg.Checksums,
		Replicas:   cfg.Replicas,
		Cache:      ns.cache,
		QueueDepth: cfg.QueueDepth,
	})
	if err != nil {
		return nil, err
	}
	ns.stores = append(ns.stores, st)
	return st, nil
}

// Close closes every stack exactly once (each stack closes its own
// layers down to the media).
func (ns *nodeStacks) Close() error {
	if ns == nil || ns.closed {
		return nil
	}
	ns.closed = true
	var first error
	for _, st := range ns.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ns *nodeStacks) resetDevices() {
	if ns == nil {
		return
	}
	for _, d := range ns.devs {
		d.Reset()
	}
}

// Cluster is the 1D layout: the graph is block-partitioned over P machines
// by vertex, each owning its vertices' full adjacency and status. It is
// the shared scaffold (core) plus the 1D collectives in run.go.
type Cluster struct {
	core
}

// Build partitions src across the configured machines and constructs each
// machine's local adjacency (hubs-first, as in NETAL). With ForwardOnNVM,
// every machine's adjacency is additionally offloaded through its own
// storage stack and the DRAM copy is kept only for the bottom-up
// direction, mirroring the single-node placement (forward on NVM,
// backward in DRAM).
func Build(src edgelist.Source, cfg Config) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := src.NumVertices()
	// Reuse the NUMA partitioner: machines play the role of nodes.
	part := numa.NewPartition(numa.Topology{Nodes: cfg.Machines, CoresPerNode: 1}, int(n))
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		return nil, err
	}
	starts := make([]int64, len(part.Starts))
	for k, s := range part.Starts {
		starts[k] = int64(s)
	}
	c := &Cluster{}
	c.init(cfg, n, cfg.Machines, starts, c)
	for k, m := range c.machines {
		m.td.LocalGraph = *bg.PerNode[k]
		if cfg.ForwardOnNVM {
			if err := c.offload(m, &m.td, fmt.Sprintf("m%d-fwd", k)); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

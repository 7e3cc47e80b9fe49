package semibfs

import (
	"fmt"

	"semibfs/internal/cluster"
	"semibfs/internal/edgelist"
	"semibfs/internal/validate"
)

// ClusterLayout selects the distributed partitioning strategy.
type ClusterLayout int

const (
	// Layout1D block-partitions vertices across machines (the default):
	// simple, but its bottom-up frontier allgather spans all P machines.
	Layout1D ClusterLayout = iota
	// Layout2D blocks the adjacency matrix over an R x C grid (Beamer,
	// MTAAP 2013), shrinking collectives to sqrt(P) machines. Each grid
	// machine carries the same per-node semi-external stack as 1D.
	Layout2D
)

// ClusterOptions configure a simulated multi-node traversal — the paper's
// stated future work ("applying our technique to multi-node
// environments"), with the forward-graph offload applied per machine.
type ClusterOptions struct {
	// Machines is the number of cluster nodes (default 4).
	Machines int
	// Layout selects 1D (default) or 2D partitioning.
	Layout ClusterLayout
	// CoresPerMachine scales each machine's compute throughput
	// (default 48, the paper's per-node core count).
	CoresPerMachine int
	// Alpha / Beta are the hybrid thresholds on the global frontier.
	Alpha, Beta float64
	// ForwardOnNVM offloads every machine's forward adjacency to its
	// own simulated PCIe flash device.
	ForwardOnNVM bool
	// Compress stores each machine's offloaded adjacency delta+varint
	// encoded, as the single-node stack does. Requires ForwardOnNVM.
	Compress bool
	// Checksums guards every machine's offloaded blocks with CRC framing.
	Checksums bool
	// Replicas mirrors each machine's device (2 = primary + mirror), so
	// a single replica death is rescued transparently.
	Replicas int
	// CacheBytes adds a DRAM page cache of that size to each machine's
	// stack; QueueDepth enables the async I/O layer when > 0.
	CacheBytes int64
	QueueDepth int
	// DeviceLatencyScale scales the per-machine device latencies.
	DeviceLatencyScale float64
	// NetworkLatencySeconds / NetworkBandwidth override the
	// interconnect model (zero keeps the InfiniBand-class default).
	NetworkLatencySeconds float64
	NetworkBandwidth      float64
}

// Cluster is a built multi-node system ready for repeated traversals.
type Cluster struct {
	c   distRunner
	src edgelist.Source
}

// distRunner is satisfied by both the 1D cluster and the 2D grid.
type distRunner interface {
	Run(root int64) (*cluster.Result, error)
	NumMachines() int
	Close() error
}

// ClusterResult is one distributed traversal's outcome.
type ClusterResult struct {
	Root    int64
	Visited int64
	// Parents is the BFS tree (the root parents itself, -1 unreached).
	Parents []int64
	// Seconds is the virtual duration on the simulated cluster.
	Seconds float64
	// CommBytes is the interconnect traffic of the run.
	CommBytes int64
	Switches  int
	Levels    int
	// Degraded reports that a machine died unrescuably mid-run and the
	// traversal finished from DRAM-resident state; DeadMachines lists
	// the casualties (row-major machine indices).
	Degraded     bool
	DeadMachines []int
}

// NewCluster partitions edges across the configured machines.
func NewCluster(edges *EdgeList, opts ClusterOptions) (*Cluster, error) {
	cfg := cluster.Config{
		Machines:        opts.Machines,
		CoresPerMachine: opts.CoresPerMachine,
		Alpha:           opts.Alpha,
		Beta:            opts.Beta,
		ForwardOnNVM:    opts.ForwardOnNVM,
		Compress:        opts.Compress,
		Checksums:       opts.Checksums,
		Replicas:        opts.Replicas,
		CacheBytes:      opts.CacheBytes,
		QueueDepth:      opts.QueueDepth,
		LatencyScale:    opts.DeviceLatencyScale,
	}
	if opts.NetworkLatencySeconds > 0 || opts.NetworkBandwidth > 0 {
		cfg.Net = cluster.DefaultNetwork
		if opts.NetworkLatencySeconds > 0 {
			cfg.Net.Latency = secondsToDuration(opts.NetworkLatencySeconds)
		}
		if opts.NetworkBandwidth > 0 {
			cfg.Net.Bandwidth = opts.NetworkBandwidth
		}
	}
	src := edgelist.ListSource{List: edges.list}
	var runner distRunner
	var err error
	switch opts.Layout {
	case Layout1D:
		runner, err = cluster.Build(src, cfg)
	case Layout2D:
		runner, err = cluster.BuildGrid(src, cfg)
	default:
		return nil, fmt.Errorf("semibfs: unknown cluster layout %d", opts.Layout)
	}
	if err != nil {
		return nil, err
	}
	return &Cluster{c: runner, src: src}, nil
}

// Machines returns the cluster size.
func (c *Cluster) Machines() int { return c.c.NumMachines() }

// BFS runs one distributed traversal from root.
func (c *Cluster) BFS(root int64) (*ClusterResult, error) {
	res, err := c.c.Run(root)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{
		Root:         res.Root,
		Visited:      res.Visited,
		Parents:      append([]int64(nil), res.Tree...),
		Seconds:      res.Time.Seconds(),
		CommBytes:    res.CommBytes,
		Switches:     res.Switches,
		Levels:       len(res.Levels),
		Degraded:     res.Degraded,
		DeadMachines: append([]int(nil), res.DeadMachines...),
	}, nil
}

// Close releases every machine's simulated storage stack.
func (c *Cluster) Close() error { return c.c.Close() }

// Validate checks a distributed result against the edge list.
func (c *Cluster) Validate(res *ClusterResult) error {
	if res == nil {
		return fmt.Errorf("semibfs: nil cluster result")
	}
	_, err := validate.Run(res.Parents, res.Root, c.src)
	return err
}

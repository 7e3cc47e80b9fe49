// Package numa models the NUMA machine the paper evaluates on: a 4-socket
// AMD Opteron 6172 system with 12 cores per socket (48 cores total).
//
// Two concerns live here:
//
//   - Topology: how many NUMA nodes exist, how many cores each has, and
//     which node owns which block of vertices. NETAL (the paper's base
//     implementation) block-partitions the vertex ID space across nodes so
//     that all BFS status writes for a vertex are local to its owner node.
//
//   - CostModel: calibrated virtual-time costs for the memory operations a
//     BFS kernel performs — local and remote DRAM accesses, sequential
//     streaming, atomic operations, and per-edge compute. The BFS kernels
//     charge these costs to each simulated worker's vtime.Clock; the model
//     is what lets a 1-core host emulate the 48-core testbed.
package numa

import (
	"fmt"

	"semibfs/internal/vtime"
)

// Topology describes the simulated machine: Nodes NUMA domains with
// CoresPerNode cores each.
type Topology struct {
	Nodes        int
	CoresPerNode int
}

// DefaultTopology mirrors the paper's testbed: 4 sockets x 12 cores.
var DefaultTopology = Topology{Nodes: 4, CoresPerNode: 12}

// Validate reports an error if the topology is degenerate.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("numa: invalid topology %+v", t)
	}
	return nil
}

// TotalCores returns the total number of simulated cores (= simulated BFS
// workers).
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode }

// NodeOfCore returns the NUMA node that core c belongs to.
func (t Topology) NodeOfCore(c int) int { return c / t.CoresPerNode }

// Partition describes the block partitioning of n vertices across the
// topology's NUMA nodes: node k owns vertices [Starts[k], Starts[k+1]).
// NETAL assigns vertex v_i with i in [k*n/l, (k+1)*n/l) to node N_k.
type Partition struct {
	Topology Topology
	N        int
	Starts   []int // len == Nodes+1

	recip float64 // Nodes/N, NodeOf's first estimate; zero in a bare literal
}

// NewPartition block-partitions n vertices across t's nodes. The remainder
// of an uneven division is spread one vertex at a time over the leading
// nodes so every node's range differs in size by at most one.
func NewPartition(t Topology, n int) *Partition {
	p := &Partition{Topology: t, N: n, Starts: make([]int, t.Nodes+1), recip: float64(t.Nodes) / float64(n)}
	base, rem := n/t.Nodes, n%t.Nodes
	for k := range p.Starts {
		p.Starts[k] = k*base + min(k, rem)
	}
	return p
}

// NodeOf returns the NUMA node that owns vertex v.
func (p *Partition) NodeOf(v int) int {
	// v*Nodes/N by a multiply with the reciprocal NewPartition computed
	// once, not a 64-bit divide. The block sizes differ by at most one and
	// the float product misses v*Nodes/N by far less than one, so the
	// estimate lands next to the owner and the correction loops make it
	// exact. A Partition built as a literal has a zero reciprocal and
	// walks up from node 0.
	if p.N == 0 {
		return 0
	}
	k := int(float64(v) * p.recip)
	if k >= p.Topology.Nodes {
		k = p.Topology.Nodes - 1
	}
	for v < p.Starts[k] {
		k--
	}
	for v >= p.Starts[k+1] {
		k++
	}
	return k
}

// Range returns the vertex range [lo, hi) owned by node k.
func (p *Partition) Range(k int) (lo, hi int) {
	return p.Starts[k], p.Starts[k+1]
}

// Size returns the number of vertices owned by node k.
func (p *Partition) Size(k int) int { return p.Starts[k+1] - p.Starts[k] }

// CostModel holds the calibrated virtual-time costs of the machine's
// memory system. All values are per-operation unless noted.
//
// The constants are calibrated (see EXPERIMENTS.md) so that the hybrid BFS
// on the DRAM-only scenario lands in the paper's performance regime
// relative to the other kernels; the *ratios* between the scenarios and
// kernels are what the reproduction preserves.
type CostModel struct {
	// LocalAccess is the cost of a cache-unfriendly (random) load or
	// store hitting DRAM on the worker's own NUMA node.
	LocalAccess vtime.Duration
	// RemoteAccess is the same for another node's DRAM (QPI/HT hop).
	RemoteAccess vtime.Duration
	// EdgeCompute is the pure CPU cost of examining one edge
	// (index arithmetic, comparisons, branch).
	EdgeCompute vtime.Duration
	// VertexOverhead is the per-vertex bookkeeping cost (dequeue,
	// degree fetch, loop setup).
	VertexOverhead vtime.Duration
	// AtomicOp is the extra cost of an atomic compare-and-swap as used
	// by the top-down direction to claim a child.
	AtomicOp vtime.Duration
	// SeqBytes is the cost per byte of streaming sequential DRAM reads
	// (adjacency list scans); it models per-core streaming bandwidth.
	SeqBytes vtime.Duration // cost per 64-byte cache line, charged per line
	// BitmapProbe is the cost of testing one bit in a node-local status
	// bitmap (visited or frontier replica). It sits between a cache hit
	// and LocalAccess because the per-node bitmap slice mostly lives in
	// the last-level cache.
	BitmapProbe vtime.Duration
	// QueueAppend is the amortized cost of appending one vertex to a
	// worker-local next-frontier queue.
	QueueAppend vtime.Duration
	// Barrier is the cost of a full level barrier across all workers.
	Barrier vtime.Duration
	// CacheLine is the machine cache line size in bytes.
	CacheLine int
}

// DefaultCostModel is the calibrated model for the Opteron 6172 testbed.
// See EXPERIMENTS.md ("Calibration") for how these were chosen.
var DefaultCostModel = CostModel{
	LocalAccess:    vtime.Duration(60),
	RemoteAccess:   vtime.Duration(130),
	EdgeCompute:    vtime.Duration(3),
	VertexOverhead: vtime.Duration(30),
	AtomicOp:       vtime.Duration(25),
	SeqBytes:       vtime.Duration(8), // per cache line
	BitmapProbe:    vtime.Duration(20),
	QueueAppend:    vtime.Duration(4),
	Barrier:        5 * vtime.Microsecond,
	CacheLine:      64,
}

// Access returns the cost of one random access that is local (or remote)
// to the acting worker's node.
func (m *CostModel) Access(local bool) vtime.Duration {
	if local {
		return m.LocalAccess
	}
	return m.RemoteAccess
}

// Stream returns the cost of streaming n sequential bytes from DRAM.
func (m *CostModel) Stream(n int) vtime.Duration {
	if n <= 0 {
		return 0
	}
	lines := (n + m.CacheLine - 1) / m.CacheLine
	return vtime.Duration(lines) * m.SeqBytes
}

// Counters tracks per-worker memory-system activity; the experiment
// harness aggregates them for the locality analyses.
type Counters struct {
	LocalAccesses  int64
	RemoteAccesses int64
	BytesStreamed  int64
	AtomicOps      int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.LocalAccesses += other.LocalAccesses
	c.RemoteAccesses += other.RemoteAccesses
	c.BytesStreamed += other.BytesStreamed
	c.AtomicOps += other.AtomicOps
}

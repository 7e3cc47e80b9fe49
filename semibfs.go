// Package semibfs is a single-node hybrid (direction-optimizing) BFS
// library with semi-external memory support, reproducing Iwabuchi et
// al., "Hybrid BFS Approach Using Semi-External Memory" (IPDPSW 2014).
//
// The library traverses graphs that do not fit in DRAM by offloading the
// forward (top-down) CSR graph — and optionally the cold tails of the
// backward (bottom-up) graph — to an NVM device, reading them back on
// demand in 4 KiB chunks. Because a hybrid BFS performs almost all of its
// edge examinations in the bottom-up direction, the slow device is rarely
// touched and DRAM can be halved at a modest TEPS cost.
//
// Hardware is emulated: the NUMA machine and the NVM devices are
// simulated by a calibrated virtual-time cost model, while the traversal
// work, file I/O, and all data structures are real (results are validated
// against the edge list per the Graph500 rules). See DESIGN.md.
//
// Quick start:
//
//	edges, _ := semibfs.GenerateKronecker(18, 16, 42)
//	sys, _ := semibfs.NewSystem(edges, semibfs.Options{Placement: semibfs.PlacePCIeFlash})
//	defer sys.Close()
//	res, _ := sys.BFS(sys.FirstConnectedVertex())
//	fmt.Println(res.TEPS(), "TEPS,", res.Visited, "vertices")
package semibfs

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/graph500"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
)

// Edge is one undirected edge (a Graph500 tuple).
type Edge struct {
	U, V int64
}

// EdgeList is the library's graph input: an undirected edge list plus the
// vertex-universe size.
type EdgeList struct {
	list *edgelist.List
}

// GenerateKronecker produces a Graph500-compliant Kronecker edge list with
// 2^scale vertices and edgeFactor*2^scale edges, deterministically from
// seed.
func GenerateKronecker(scale, edgeFactor int, seed uint64) (*EdgeList, error) {
	list, err := generator.Generate(generator.Config{
		Scale: scale, EdgeFactor: edgeFactor, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &EdgeList{list: list}, nil
}

// NewEdgeList wraps a caller-provided edge list over numVertices vertices.
// Self-loops are permitted (the graph builders drop them); endpoints must
// be within [0, numVertices).
func NewEdgeList(numVertices int64, edges []Edge) (*EdgeList, error) {
	l := &edgelist.List{NumVertices: numVertices, Edges: make([]edgelist.Edge, len(edges))}
	for i, e := range edges {
		l.Edges[i] = edgelist.Edge{U: e.U, V: e.V}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &EdgeList{list: l}, nil
}

// NumVertices returns the vertex-universe size.
func (e *EdgeList) NumVertices() int64 { return e.list.NumVertices }

// NumEdges returns the number of edge tuples.
func (e *EdgeList) NumEdges() int64 { return int64(len(e.list.Edges)) }

// Placement selects where the graph data lives.
type Placement int

const (
	// PlaceDRAM keeps everything in DRAM (the paper's DRAM-only
	// scenario).
	PlaceDRAM Placement = iota
	// PlacePCIeFlash offloads the forward graph to a FusionIO
	// ioDrive2-class PCIe flash device.
	PlacePCIeFlash
	// PlaceSSD offloads the forward graph to an Intel SSD 320-class
	// SATA drive.
	PlaceSSD
)

func (p Placement) String() string {
	switch p {
	case PlaceDRAM:
		return "DRAM"
	case PlacePCIeFlash:
		return "PCIeFlash"
	case PlaceSSD:
		return "SSD"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// TraversalMode selects the BFS policy.
type TraversalMode int

const (
	// Hybrid switches between top-down and bottom-up by the alpha/beta
	// rule (the paper's algorithm, and the default).
	Hybrid TraversalMode = iota
	// TopDownOnly forces the conventional direction.
	TopDownOnly
	// BottomUpOnly forces the reverse direction.
	BottomUpOnly
)

// Options configure a System.
type Options struct {
	// Placement selects the DRAM/NVM configuration (default PlaceDRAM).
	Placement Placement
	// BackwardDRAMEdgeLimit keeps only the first k (highest-degree)
	// neighbors of each vertex of the backward graph in DRAM, tails on
	// NVM; 0 keeps the whole backward graph in DRAM. Requires an NVM
	// placement.
	BackwardDRAMEdgeLimit int
	// Alpha and Beta are the direction-switch thresholds: top-down
	// switches to bottom-up when the frontier grew beyond N/Alpha
	// vertices; bottom-up switches back when it shrank below N/Beta.
	// Zero selects Alpha=1e4, Beta=10*Alpha.
	Alpha, Beta float64
	// Mode forces a single direction; default Hybrid.
	Mode TraversalMode
	// NUMANodes / CoresPerNode describe the simulated machine; zero
	// selects the paper's 4 x 12 testbed.
	NUMANodes    int
	CoresPerNode int
	// Dir stores offloaded graph files on disk; empty keeps them in
	// memory (identical timing model).
	Dir string
	// DeviceLatencyScale multiplies the NVM device's fixed request
	// latencies (1 or 0 = the real device constants). Use
	// ScaleEquivalentLatency to reproduce paper-scale ratios on small
	// instances.
	DeviceLatencyScale float64
}

// ScaleEquivalentLatency returns the DeviceLatencyScale that makes a
// graph of the given scale exhibit the paper's SCALE 27 ratio of device
// latency to traversal time.
func ScaleEquivalentLatency(scale int) float64 {
	return nvm.ScaleEquivalenceFactor(scale, 27)
}

// System is a built, placed graph ready for repeated traversals. A System
// and its storage stacks, like the Servers and QueryPools over them, are
// used by one goroutine at a time.
type System struct {
	sys    *core.System
	src    edgelist.Source
	runner *bfs.Runner
	opts   Options
	deg    []int64
}

// NewSystem constructs the forward/backward graphs from edges and places
// them per opts.
func NewSystem(edges *EdgeList, opts Options) (*System, error) {
	sc, err := scenarioOf(opts)
	if err != nil {
		return nil, err
	}
	topo := numa.DefaultTopology
	if opts.NUMANodes > 0 {
		topo = numa.Topology{Nodes: opts.NUMANodes, CoresPerNode: opts.CoresPerNode}
		if topo.CoresPerNode == 0 {
			topo.CoresPerNode = 1
		}
	}
	src := edgelist.ListSource{List: edges.list}
	sys, err := core.Build(src, topo, sc, core.BuildOptions{Dir: opts.Dir})
	if err != nil {
		return nil, err
	}
	cfg := bfs.Config{
		Topology: topo,
		Alpha:    opts.Alpha,
		Beta:     opts.Beta,
		Mode:     bfs.Mode(opts.Mode),
	}
	runner, err := sys.NewRunner(cfg)
	if err != nil {
		sys.Close()
		return nil, err
	}
	deg, err := csr.Degrees(src)
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &System{sys: sys, src: src, runner: runner, opts: opts, deg: deg}, nil
}

func scenarioOf(opts Options) (core.Scenario, error) {
	var sc core.Scenario
	switch opts.Placement {
	case PlaceDRAM:
		sc = core.ScenarioDRAMOnly
	case PlacePCIeFlash:
		sc = core.ScenarioPCIeFlash
	case PlaceSSD:
		sc = core.ScenarioSSD
	default:
		return sc, fmt.Errorf("semibfs: unknown placement %v", opts.Placement)
	}
	if opts.BackwardDRAMEdgeLimit > 0 {
		if !sc.HasNVM() {
			return sc, fmt.Errorf("semibfs: BackwardDRAMEdgeLimit requires an NVM placement")
		}
		sc.BackwardDRAMEdgeLimit = opts.BackwardDRAMEdgeLimit
	}
	if opts.DeviceLatencyScale > 0 {
		sc.LatencyScale = opts.DeviceLatencyScale
	}
	return sc, nil
}

// Close releases the system's stores.
func (s *System) Close() error { return s.sys.Close() }

// Degree returns the undirected degree of vertex v.
func (s *System) Degree(v int64) int64 { return s.deg[v] }

// FirstConnectedVertex returns the lowest-numbered vertex with at least
// one edge, or -1 if the graph has none.
func (s *System) FirstConnectedVertex() int64 {
	for v, d := range s.deg {
		if d > 0 {
			return int64(v)
		}
	}
	return -1
}

// DRAMBytes returns the graph bytes resident in DRAM.
func (s *System) DRAMBytes() int64 { return s.sys.DRAMBytes() }

// NVMBytes returns the graph bytes offloaded to NVM.
func (s *System) NVMBytes() int64 { return s.sys.NVMBytes() }

// DeviceStats returns the NVM device's accumulated request statistics
// (zero value for PlaceDRAM).
func (s *System) DeviceStats() DeviceStats {
	if len(s.sys.Devices) == 0 {
		return DeviceStats{}
	}
	st := s.sys.Devices[0].Snapshot()
	return DeviceStats{
		Reads:             st.Reads,
		ReadBytes:         st.ReadBytes,
		AvgQueueSize:      st.AvgQueueSize,
		AvgRequestSectors: st.AvgRequestSectors,
	}
}

// DeviceStats summarizes NVM request activity (iostat-style).
type DeviceStats struct {
	Reads             int64
	ReadBytes         int64
	AvgQueueSize      float64
	AvgRequestSectors float64
}

// LevelInfo describes one BFS level.
type LevelInfo struct {
	Level        int
	Direction    string
	Frontier     int64
	ExaminedDRAM int64
	ExaminedNVM  int64
	Seconds      float64
}

// Result is one traversal's outcome.
type Result struct {
	Root    int64
	Visited int64
	// Parents is the BFS tree: Parents[v] is v's parent, the root's is
	// itself, and -1 marks unreached vertices.
	Parents []int64
	// Seconds is the traversal's (virtual) duration on the simulated
	// machine.
	Seconds float64
	// TraversedEdges counts input edges inside the traversed component
	// (the TEPS numerator).
	TraversedEdges int64
	Levels         []LevelInfo
	ExaminedTD     int64
	ExaminedBU     int64
	Switches       int
}

// TEPS returns the run's traversed edges per (virtual) second.
func (r *Result) TEPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.TraversedEdges) / r.Seconds
}

// BFS runs one traversal from root and validates nothing; call Validate
// for the full Graph500 Step 4 checks.
func (s *System) BFS(root int64) (*Result, error) {
	out, err := s.runner.Run(root)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Root:       root,
		Visited:    out.Visited,
		Parents:    out.CloneTree(),
		Seconds:    out.Time.Seconds(),
		ExaminedTD: out.ExaminedTD,
		ExaminedBU: out.ExaminedBU,
		Switches:   out.Switches,
	}
	res.TraversedEdges = validate.TraversedEdges(res.Parents, s.deg)
	for _, l := range out.Levels {
		res.Levels = append(res.Levels, LevelInfo{
			Level:        l.Level,
			Direction:    l.Direction.String(),
			Frontier:     l.Frontier,
			ExaminedDRAM: l.ExaminedDRAM,
			ExaminedNVM:  l.ExaminedNVM,
			Seconds:      l.Time.Seconds(),
		})
	}
	return res, nil
}

// Validate checks res against the edge list per the Graph500 rules and
// returns a descriptive error on the first violation.
func (s *System) Validate(res *Result) error {
	_, err := validate.Run(res.Parents, res.Root, s.src)
	return err
}

// BenchmarkSummary is the outcome of a Graph500-style multi-root run.
type BenchmarkSummary struct {
	Roots        int
	MedianTEPS   float64
	MinTEPS      float64
	MaxTEPS      float64
	HarmonicTEPS float64
	PerRoot      []Result
}

// Benchmark runs the Graph500 protocol (roots random non-isolated
// sources, each validated) over this system and reports TEPS statistics.
// roots <= 0 selects the spec's 64.
func (s *System) Benchmark(roots int) (*BenchmarkSummary, error) {
	if roots <= 0 {
		roots = graph500.DefaultRoots
	}
	sel, err := graph500.SampleRoots(s.src.NumVertices(), roots, 0xB5, func(v int64) int64 {
		return s.deg[v]
	})
	if err != nil {
		return nil, err
	}
	sum := &BenchmarkSummary{Roots: roots}
	teps := make([]float64, 0, roots)
	for _, root := range sel {
		res, err := s.BFS(root)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(res); err != nil {
			return nil, fmt.Errorf("semibfs: validation failed for root %d: %w", root, err)
		}
		sum.PerRoot = append(sum.PerRoot, *res)
		teps = append(teps, res.TEPS())
	}
	st := summarize(teps)
	sum.MedianTEPS, sum.MinTEPS, sum.MaxTEPS, sum.HarmonicTEPS = st[0], st[1], st[2], st[3]
	return sum, nil
}

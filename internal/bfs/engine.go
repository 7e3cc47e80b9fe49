package bfs

import (
	"fmt"
	"runtime"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// Direction is a BFS search direction.
type Direction int

// The two search directions of the hybrid algorithm.
const (
	TopDown Direction = iota
	BottomUp
)

func (d Direction) String() string {
	if d == TopDown {
		return "top-down"
	}
	return "bottom-up"
}

// Mode selects the traversal policy.
type Mode int

const (
	// ModeHybrid switches directions by the alpha/beta rule (the paper's
	// algorithm).
	ModeHybrid Mode = iota
	// ModeTopDownOnly forces the conventional top-down BFS.
	ModeTopDownOnly
	// ModeBottomUpOnly forces bottom-up at every level.
	ModeBottomUpOnly
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeTopDownOnly:
		return "top-down-only"
	case ModeBottomUpOnly:
		return "bottom-up-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes a Runner.
type Config struct {
	// Topology is the simulated machine; zero selects the paper's
	// 4x12-core testbed.
	Topology numa.Topology
	// Cost is the memory-system cost model; zero selects the calibrated
	// default.
	Cost numa.CostModel
	// Alpha is the top-down -> bottom-up switching threshold: switch
	// when the frontier grew and exceeds N/Alpha vertices.
	Alpha float64
	// Beta is the bottom-up -> top-down threshold: switch back when the
	// frontier shrank below N/Beta vertices.
	Beta float64
	// Mode selects hybrid or single-direction traversal.
	Mode Mode
	// RealWorkers bounds the number of real goroutines executing the
	// simulated workers; 0 selects GOMAXPROCS.
	RealWorkers int
}

// WithDefaults returns c with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.Topology.Nodes == 0 {
		c.Topology = numa.DefaultTopology
	}
	if c.Cost == (numa.CostModel{}) {
		c.Cost = numa.DefaultCostModel
	}
	if c.Alpha == 0 {
		c.Alpha = 1e4
	}
	if c.Beta == 0 {
		c.Beta = 10 * c.Alpha
	}
	if c.RealWorkers <= 0 {
		c.RealWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// LevelStats records one BFS level's activity.
type LevelStats struct {
	Level     int
	Direction Direction
	// Frontier is the number of vertices in the level's frontier.
	Frontier int64
	// FrontierDegree is the summed degree of the frontier vertices,
	// computed for top-down levels (-1 for bottom-up levels).
	FrontierDegree int64
	// ExaminedDRAM / ExaminedNVM count neighbor IDs examined from each
	// tier during the level.
	ExaminedDRAM int64
	ExaminedNVM  int64
	// Claimed is the number of vertices newly added to the BFS tree.
	Claimed int64
	// Time is the level's virtual duration; Start its virtual start.
	Time  vtime.Duration
	Start vtime.Duration
}

// Examined returns the level's total examined neighbor IDs.
func (l LevelStats) Examined() int64 { return l.ExaminedDRAM + l.ExaminedNVM }

// AvgDegree returns the frontier's average degree, or 0 when unknown.
func (l LevelStats) AvgDegree() float64 {
	if l.Frontier <= 0 || l.FrontierDegree < 0 {
		return 0
	}
	return float64(l.FrontierDegree) / float64(l.Frontier)
}

// Result is one BFS execution's outcome.
type Result struct {
	Root    int64
	Visited int64
	// Tree aliases the Runner's parent array and is valid until the
	// next Run call; use CloneTree to keep it.
	Tree []int64
	RunStats
}

// CloneTree returns a copy of the parent array.
func (r *Result) CloneTree() []int64 {
	return append([]int64(nil), r.Tree...)
}

// Runner executes BFS repeatedly over one pair of graphs, reusing all BFS
// status data (tree, bitmaps, queues) across runs — the structures whose
// sizes Table II reports. It is the shared Hybrid level loop driven by the
// monomorphic BFS hook of topdown.go and kernel of bottomup.go.
type Runner struct {
	Hybrid

	// BFS status data.
	tree    []int64
	visited *bitmap.Atomic
	// claimBM arbitrates next-queue membership during a top-down level.
	// The visited bitmap is frozen while a level runs (claims become
	// visited at gather time), so every frontier parent of an unvisited
	// vertex competes in a min-CAS on the tree entry — making the parent
	// tree independent of worker count, queue depth, and I/O completion
	// order — while claimBM's TestAndSet picks exactly one worker to
	// enqueue the vertex. Bits are never cleared between levels (a stale
	// bit always belongs to a by-now-visited vertex); Run resets it.
	claimBM *bitmap.Atomic
	probes  []pullProbe // per-worker bottom-up probes
}

// NewRunner prepares a Runner over the given graphs.
func NewRunner(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, cfg Config) (*Runner, error) {
	cfg = cfg.WithDefaults()
	r := &Runner{
		tree:    make([]int64, part.N),
		visited: bitmap.NewAtomic(part.N),
		claimBM: bitmap.NewAtomic(part.N),
	}
	expand := newExpander(r.tree, r.visited, r.claimBM, &cfg.Cost)
	err := r.Init(fwd, bwd, part, cfg, Kernels{
		Name:      "bfs",
		Push:      func(int) Expand { return expand },
		Pull:      r.runBottomUpLevel,
		Finalize:  r.markVisited,
		Monotone:  true,
		MaxLevels: part.N,
	})
	if err != nil {
		return nil, err
	}
	r.probes = make([]pullProbe, len(r.Clocks))
	for w := range r.probes {
		newPullProbe(&r.probes[w], r.FrontBM[r.NodeOfWorker(w)])
	}
	return r, nil
}

// StatusBytes returns the DRAM footprint of the BFS status data (tree,
// visited/frontier/next bitmaps, frontier queues) — the "BFS Status Data"
// row of Table II.
func (r *Runner) StatusBytes() int64 {
	b := int64(len(r.tree)) * 8 // tree
	b += (r.N + 7) / 8          // visited
	b += (r.N + 7) / 8          // claim bitmap
	return b + r.Hybrid.StatusBytes()
}

// Config returns the runner's effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.Cfg }

// BackwardScanTotals sums the cumulative DRAM/NVM backward-scan edge
// counts across all workers (zero when the backward access does not track
// them).
func (r *Runner) BackwardScanTotals() (dram, nvmEdges int64) {
	for _, s := range r.Scanners {
		if c, ok := s.(ScanCounters); ok {
			d, n := c.Counters()
			dram += d
			nvmEdges += n
		}
	}
	return dram, nvmEdges
}

// markVisited is the runner's gather hook (Kernels.Finalize): the level
// boundary where claims become visited. The top-down kernel freezes the
// visited bitmap while a level runs so the parent choice is a
// deterministic min over the frontier (see newExpander).
func (r *Runner) markVisited(q []int64) vtime.Duration {
	for _, v := range q {
		r.visited.Set(int(v))
	}
	return vtime.Duration(len(q)) * r.Cfg.Cost.BitmapProbe
}

// Run executes one BFS from root and returns its result. The returned
// Tree aliases internal storage; see Result.Tree.
func (r *Runner) Run(root int64) (*Result, error) {
	if root < 0 || root >= r.N {
		return nil, fmt.Errorf("bfs: root %d outside [0,%d)", root, r.N)
	}
	for i := range r.tree {
		r.tree[i] = -1
	}
	r.visited.Reset()
	r.claimBM.Reset()
	r.Begin()

	r.tree[root] = root
	r.visited.Set(int(root))
	// Level 0 frontier: the root, in the representation the first level
	// wants. BFS always starts top-down from the source vertex; a forced
	// bottom-up run finds its root already in the replicas, uncharged.
	dir := TopDown
	if r.Cfg.Mode == ModeBottomUpOnly {
		dir = BottomUp
		for _, bm := range r.FrontBM {
			bm.Set(int(root))
		}
	} else {
		r.FrontQ = append(r.FrontQ, root)
	}
	res, _, err := r.Traverse(dir, 1)
	if err != nil {
		return nil, err
	}
	res.Root = root
	res.Visited++ // the root
	res.Tree = r.tree
	return res, nil
}

package bfs

import (
	"fmt"

	"semibfs/internal/bitmap"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// ScanRunner is the Pearce-style semi-external BFS baseline the paper
// compares against (Section VII, Pearce et al. [1][11]): BFS status data
// (visited/frontier bitmaps, parent array) lives in DRAM while the edges
// stay on NVM, and every level performs a *thorough scan of all edges* —
// "the algorithm requires to thoroughly scan all edges in a given graph,
// which introduces significant performance degradation".
//
// Pearce et al. hide part of the resulting latency behind massive numbers
// of asynchronous threads; the model reflects that by letting the scan
// stream the edge store sequentially at full device bandwidth across all
// simulated cores, which is the best case for their approach. The
// structural cost — every level pays a full |E| read from the device —
// remains, and is what the paper's 4.22 GTEPS vs 0.05 GTEPS comparison is
// about. The baseline keeps a far smaller DRAM:NVM ratio than the paper's
// technique: only ~n bits + the parent array stay resident.
type ScanRunner struct {
	topo  numa.Topology
	cost  numa.CostModel
	dev   *nvm.Device
	store nvm.Storage
	n     int64
	m     int64

	tree     []int64
	visited  *bitmap.Bitmap
	frontier *bitmap.Bitmap
	next     *bitmap.Bitmap
	clock    *vtime.Clock
}

// NewScanRunner offloads the edge list of src to a store on a device with
// the given profile and prepares the in-DRAM status data.
func NewScanRunner(src edgelist.Source, topo numa.Topology, cost numa.CostModel, profile nvm.Profile) (*ScanRunner, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	n := src.NumVertices()
	dev := nvm.NewDevice(profile, 0)
	// Pearce et al. hide per-request latency behind massive numbers of
	// asynchronous in-flight operations; for a purely sequential scan
	// that is equivalent to issuing large (here 1 MiB) streaming
	// requests, so the scan runs at device bandwidth rather than
	// latency — the most favorable model for the baseline.
	store := nvm.NewMemStore(dev, 1<<20)
	w := edgelist.NewStoreWriter(store, nil)
	err := src.ForEach(func(e edgelist.Edge) error { return w.Append(e) })
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &ScanRunner{
		topo:     topo,
		cost:     cost,
		dev:      dev,
		store:    store,
		n:        n,
		m:        w.Count(),
		tree:     make([]int64, n),
		visited:  bitmap.New(int(n)),
		frontier: bitmap.New(int(n)),
		next:     bitmap.New(int(n)),
		clock:    vtime.NewClock(0),
	}, nil
}

// DRAMBytes returns the baseline's resident footprint (status data only).
func (r *ScanRunner) DRAMBytes() int64 {
	return r.n*8 + 3*(r.n+7)/8
}

// NVMBytes returns the offloaded edge bytes.
func (r *ScanRunner) NVMBytes() int64 { return r.store.Size() }

// Device exposes the device model for reporting.
func (r *ScanRunner) Device() *nvm.Device { return r.dev }

// Run executes one scan-based BFS from root. Every level streams the
// whole edge store once; an undirected edge relaxes in both directions.
func (r *ScanRunner) Run(root int64) (*Result, error) {
	if root < 0 || root >= r.n {
		return nil, fmt.Errorf("bfs: scan root %d outside [0,%d)", root, r.n)
	}
	for i := range r.tree {
		r.tree[i] = -1
	}
	r.visited.Reset()
	r.frontier.Reset()
	r.next.Reset()
	r.clock.AdvanceTo(0)
	r.dev.Reset()

	r.tree[root] = root
	r.visited.Set(int(root))
	r.frontier.Set(int(root))

	res := &Result{Root: root, Visited: 1}
	cores := vtime.Duration(r.topo.TotalCores())

	for level := 0; ; level++ {
		if level > int(r.n) {
			return nil, fmt.Errorf("bfs: scan runaway at level %d", level)
		}
		start := r.clock.Now()
		var claimed, examined int64
		var compute vtime.Duration
		reader := edgelist.NewStoreReaderSize(r.store, r.clock, r.m, 1<<20)
		err := reader.ForEach(func(e edgelist.Edge) error {
			if e.U == e.V {
				return nil
			}
			examined += 2
			compute += 2 * (r.cost.EdgeCompute + r.cost.BitmapProbe)
			if r.frontier.Test(int(e.U)) && !r.visited.Test(int(e.V)) {
				r.visited.Set(int(e.V))
				r.tree[e.V] = e.U
				r.next.Set(int(e.V))
				compute += r.cost.LocalAccess
				claimed++
			}
			if r.frontier.Test(int(e.V)) && !r.visited.Test(int(e.U)) {
				r.visited.Set(int(e.U))
				r.tree[e.U] = e.V
				r.next.Set(int(e.U))
				compute += r.cost.LocalAccess
				claimed++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The scan's CPU side parallelizes across all cores; the
		// device side was already charged to the shared clock by the
		// streaming reads.
		r.clock.Advance(compute / cores)
		r.clock.Advance(r.cost.Barrier)

		ls := LevelStats{
			Level:          level,
			Direction:      TopDown,
			Frontier:       int64(r.frontier.Count()),
			ExaminedNVM:    examined,
			Claimed:        claimed,
			Start:          start,
			Time:           r.clock.Now() - start,
			FrontierDegree: -1,
		}
		res.addLevel(ls)
		res.Visited += claimed
		if claimed == 0 {
			break
		}
		r.frontier.CopyFrom(r.next)
		r.next.Reset()
	}
	res.Time = r.clock.Now()
	res.Tree = r.tree
	return res, nil
}

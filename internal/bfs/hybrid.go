package bfs

import (
	"fmt"
	"sync"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// Kernels is the algorithm-specific half of a single-source hybrid
// traversal: the two level kernels plus the few policy points where
// Runner and the vertex-program engine (internal/vp) differ. The loop
// calls a hook at most once per level or once per worker queue — never per
// edge or per vertex — so the per-edge code stays monomorphic inside each
// kernel.
type Kernels struct {
	// Name prefixes the loop's errors ("bfs", "vp: pagerank").
	Name string
	// Push and Pull run one whole top-down / bottom-up level. Push expands
	// FrontQ and appends its claims to NextQ[w]; Pull probes FrontBM[node]
	// and sets its claims in NextBM; both count into Acc[w]. A failing Push
	// leaves the claims made so far published in NextQ for the rescue. A
	// nil kernel is a direction the algorithm does not implement.
	Push, Pull func() error
	// Finalize makes the claims of one gathered worker queue final (BFS
	// marks them visited) and returns the virtual time that costs; it runs
	// on the queue's own worker. Whatever bitmap arbitrates claims inside
	// Push belongs to the kernel set, which clears it here or never.
	Finalize func(q []int64) vtime.Duration
	// Monotone says a claim is permanent (a BFS vertex never re-enters the
	// frontier). The rescue keeps a failed kernel's partial claims of a
	// monotone algorithm and discards those of any other, whose idempotent
	// state writes the full re-run recomputes exactly once.
	Monotone bool
	// Steer, when set, sees the alpha/beta rule's answer for a level of a
	// healthy hybrid run and may replace it (program hints, clamping to
	// the implemented kernels).
	Steer func(level int, frontier int64, rule Direction) Direction
	// EndLevel, when set, runs single-threaded after every level's barrier
	// and reports whether the run has converged with claims still pending.
	EndLevel func(level int) (converged bool)
	// MaxLevels bounds the level loop.
	MaxLevels int
}

// WorkerAcc accumulates one simulated worker's per-level counters.
type WorkerAcc struct {
	ExaminedDRAM int64
	ExaminedNVM  int64
	Claimed      int64
	FrontierDeg  int64
	_            [4]int64 // avoid false sharing between workers
}

// Hybrid is the single-source hybrid level loop of Section III — choose a
// direction by the alpha/beta rule, run a top-down or bottom-up level,
// convert the frontier, repeat — together with all the traversal state that
// loop shares between algorithms: the frontier in both representations,
// the per-worker output queues, clocks, graph cursors and counters, the
// level barrier, and the degraded-mode pin. Runner and vp.Engine each embed
// one and supply the Kernels; the exported fields are what their kernels
// touch.
type Hybrid struct {
	Bwd  BackwardAccess
	Part *numa.Partition
	Cfg  Config
	N    int64
	// CPN is the simulated cores per NUMA node; worker w runs on node
	// w / CPN.
	CPN int

	FrontBM []*bitmap.Atomic // per-node frontier replicas
	NextBM  *bitmap.Bitmap
	FrontQ  []int64
	NextQ   [][]int64 // per-worker output queues

	Clocks   []*vtime.Clock
	Cursors  []ForwardCursor
	Scanners []BackwardScan
	// Acc holds the per-level, per-worker counters.
	Acc []WorkerAcc

	fwd      ForwardAccess
	k        Kernels
	nWorkers int
	barrier  *vtime.Barrier

	// Degraded-mode state: after a device failure is rescued mid-run the
	// controller pins to the surviving direction for the rest of the run.
	pinned    bool
	pinnedDir Direction

	// Per-run baselines set by Begin: the virtual start time, and the
	// stack-layer counters (which accumulate across runs).
	start   vtime.Duration
	layers0 nvm.StackStats

	// offsScratch is gatherQueues's prefix-sum scratch, kept across
	// levels so deep traversals don't allocate per level.
	offsScratch []int
}

// Init sizes the shared traversal state over the given graphs. cfg must
// already carry its defaults; k may capture the embedding engine.
func (h *Hybrid) Init(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, cfg Config, k Kernels) error {
	if err := cfg.Topology.Validate(); err != nil {
		return err
	}
	if part.Topology != cfg.Topology {
		return fmt.Errorf("%s: partition topology %+v != config topology %+v",
			k.Name, part.Topology, cfg.Topology)
	}
	n := part.N
	nw := cfg.Topology.TotalCores()
	*h = Hybrid{
		Bwd:      bwd,
		Part:     part,
		Cfg:      cfg,
		N:        int64(n),
		CPN:      cfg.Topology.CoresPerNode,
		FrontBM:  make([]*bitmap.Atomic, cfg.Topology.Nodes),
		NextBM:   bitmap.New(n),
		NextQ:    make([][]int64, nw),
		Clocks:   make([]*vtime.Clock, nw),
		Cursors:  make([]ForwardCursor, nw),
		Scanners: make([]BackwardScan, nw),
		Acc:      make([]WorkerAcc, nw),
		fwd:      fwd,
		k:        k,
		nWorkers: nw,
		barrier:  vtime.NewBarrier(cfg.Cost.Barrier),

		offsScratch: make([]int, nw+1),
	}
	for node := range h.FrontBM {
		h.FrontBM[node] = bitmap.NewAtomic(n)
	}
	for w := 0; w < nw; w++ {
		h.Clocks[w] = vtime.NewClock(0)
		h.Cursors[w] = fwd.NewCursor(h.Clocks[w])
		h.Scanners[w] = bwd.NewScanner(h.Clocks[w])
		h.NextQ[w] = make([]int64, 0, 1024)
	}
	return nil
}

// StatusBytes returns the DRAM footprint of the shared traversal state
// (frontier replicas, next bitmap, queues).
func (h *Hybrid) StatusBytes() int64 {
	b := int64(len(h.FrontBM)) * ((h.N + 7) / 8) // frontier replicas
	b += (h.N + 7) / 8                           // next bitmap
	b += int64(cap(h.FrontQ)) * 8                // frontier queue
	for _, q := range h.NextQ {
		b += int64(cap(q)) * 8
	}
	return b
}

// Parallel runs fn(w) for every simulated worker w, multiplexed over the
// configured number of real goroutines. Errors are collected; the first
// non-nil one is returned.
func (h *Hybrid) Parallel(fn func(w int) error) error {
	return runParallel(h.nWorkers, h.Cfg.RealWorkers, fn)
}

// runParallel multiplexes nWorkers simulated workers over at most
// realWorkers goroutines, assigning worker w to goroutine w % real so the
// simulated-worker -> work mapping (and thus every virtual clock) is
// independent of the real parallelism. Shared by Hybrid and BatchRunner.
func runParallel(nWorkers, realWorkers int, fn func(w int) error) error {
	real := realWorkers
	if real > nWorkers {
		real = nWorkers
	}
	if real <= 1 {
		for w := 0; w < nWorkers; w++ {
			if err := fn(w); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, real)
	var wg sync.WaitGroup
	for g := 0; g < real; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := g; w < nWorkers; w += real {
				if err := fn(w); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NodeOfWorker returns the NUMA node simulated worker w runs on.
func (h *Hybrid) NodeOfWorker(w int) int { return w / h.CPN }

// NextDirection is the Section III-C switching rule on the sizes of the
// last two frontiers: leave top-down when the frontier grew past
// scale/alpha, leave bottom-up when it shrank below scale/beta. scale is
// the vertex count — times the live lane count for a batched traversal,
// whose frontiers are counted in lane-bits.
func NextDirection(cur Direction, prevCount, curCount int64, scale, alpha, beta float64) Direction {
	switch cur {
	case TopDown:
		if curCount > prevCount && float64(curCount) > scale/alpha {
			return BottomUp
		}
	case BottomUp:
		if curCount < prevCount && float64(curCount) < scale/beta {
			return TopDown
		}
	}
	return cur
}

// steerMode applies the two overrides every single-node engine puts before
// the alpha/beta rule. A degraded run is pinned: the rule must never steer
// the traversal back onto a dead device. A forced mode is a contract.
func steerMode(pinned bool, pinnedDir Direction, mode Mode) (Direction, bool) {
	switch {
	case pinned:
		return pinnedDir, true
	case mode == ModeTopDownOnly:
		return TopDown, true
	case mode == ModeBottomUpOnly:
		return BottomUp, true
	}
	return 0, false
}

// decide picks a level's direction from the frontier sizes of the previous
// two levels.
func (h *Hybrid) decide(level int, cur Direction, prevCount, curCount int64) Direction {
	if dir, forced := steerMode(h.pinned, h.pinnedDir, h.Cfg.Mode); forced {
		return dir
	}
	rule := NextDirection(cur, prevCount, curCount, float64(h.N), h.Cfg.Alpha, h.Cfg.Beta)
	if h.k.Steer != nil {
		return h.k.Steer(level, curCount, rule)
	}
	return rule
}

// Begin starts a run: it clears the shared traversal state, aligns the
// worker clocks and stamps the run's start. Setup is not charged to the
// run, matching the Graph500 timing protocol which starts the clock at
// traversal. The caller then installs the level-0 frontier — in FrontQ, or
// straight into the replicas, charged (ConvertFrontier) or not as its
// algorithm defines — and calls Traverse.
func (h *Hybrid) Begin() {
	h.NextBM.Reset()
	for _, bm := range h.FrontBM {
		bm.Reset()
	}
	h.FrontQ = h.FrontQ[:0]
	for w := range h.NextQ {
		h.NextQ[w] = h.NextQ[w][:0]
	}
	h.pinned = false
	// A completed run ends on a barrier, but a failed one leaves the
	// clocks wherever its workers stopped; start every run level.
	h.start = vtime.MaxOf(h.Clocks)
	for _, c := range h.Clocks {
		c.AdvanceTo(h.start)
	}
	h.layers0 = h.layerTotals()
}

// kernel returns the level kernel of direction dir (nil when the algorithm
// does not implement it).
func (h *Hybrid) kernel(dir Direction) func() error {
	if dir == TopDown {
		return h.k.Push
	}
	return h.k.Pull
}

// runLevel clears the per-worker counters and runs dir's kernel.
func (h *Hybrid) runLevel(dir Direction) error {
	for w := range h.Acc {
		h.Acc[w] = WorkerAcc{}
	}
	return h.kernel(dir)()
}

// Traverse runs levels from a frontier of curCount vertices, installed in
// dir's representation since Begin, until a level claims nothing or the
// kernels report convergence. The result's Visited counts the claims (not
// the initial frontier); Root and Tree are the caller's to fill.
func (h *Hybrid) Traverse(dir Direction, curCount int64) (res *Result, converged bool, err error) {
	res = &Result{}
	name := h.k.Name
	prevCount := int64(0)
	for level := 0; curCount > 0; level++ {
		if level > h.k.MaxLevels {
			return nil, false, fmt.Errorf("%s: level %d exceeds bound %d; cycle in control logic or no convergence",
				name, level, h.k.MaxLevels)
		}
		if level > 0 {
			// The paper's rule: switching is evaluated from level 1 on,
			// comparing the frontier sizes of the last two levels.
			if newDir := h.decide(level, dir, prevCount, curCount); newDir != dir {
				if err := h.ConvertFrontier(dir, newDir); err != nil {
					return nil, false, err
				}
				res.Switches++
				dir = newDir
			}
		}
		levelStart := vtime.MaxOf(h.Clocks)
		var seeded int64
		if err := h.runLevel(dir); err != nil {
			// A level kernel failed — usually a device declared dead
			// after exhausting retries. If the other direction's graph is
			// DRAM-resident, rescue the level: keep the claims already
			// made, convert the frontier, and re-run the remainder of
			// the level in the surviving direction, pinned for the rest
			// of the run.
			to, ok := rescueTarget(h.Cfg.Mode, h.pinned, dir, h.fwd, h.Bwd)
			if !ok || h.kernel(to) == nil {
				return nil, false, fmt.Errorf("%s: level %d (%s): %w", name, level, dir, err)
			}
			cause := err
			seeded, err = h.enterDegraded(dir, to)
			if err != nil {
				return nil, false, fmt.Errorf("%s: level %d: degrading %s -> %s: %w", name, level, dir, to, err)
			}
			res.Resilience.Degraded = append(res.Resilience.Degraded, DegradedEvent{
				Level: level, From: dir, To: to, Cause: cause.Error(),
			})
			h.pinned, h.pinnedDir = true, to
			dir = to
			res.Switches++
			if err := h.runLevel(dir); err != nil {
				return nil, false, fmt.Errorf("%s: level %d (%s, degraded): %w", name, level, dir, err)
			}
		}
		levelEnd := h.barrier.Sync(h.Clocks)

		// seeded counts claims made by a failed kernel before this level
		// degraded; their state is already set but the re-run's
		// accumulators never saw them.
		ls := foldLevel(h.Acc, level, dir, curCount, seeded)
		ls.Start, ls.Time = levelStart, levelEnd-levelStart
		res.addLevel(ls)
		res.Visited += ls.Claimed

		done := h.k.EndLevel != nil && h.k.EndLevel(level)
		if ls.Claimed == 0 {
			break
		}
		if done {
			converged = true
			break
		}
		if err := h.promoteNext(dir); err != nil {
			return nil, false, err
		}
		prevCount, curCount = curCount, ls.Claimed
	}
	res.Time = vtime.MaxOf(h.Clocks) - h.start
	res.Layers = h.layerTotals().Sub(h.layers0)
	// The legacy summary fields are views over the generic layer deltas.
	res.Resilience.fromLayers(res.Layers)
	res.Resilience.Devices = nvm.CollectReplicaHealth(h.stacks()...)
	res.Cache = res.Layers.CacheView()
	return res, converged, nil
}

// foldLevel sums one level's per-worker counters into its LevelStats
// (Start and Time are the caller's clock readings).
func foldLevel(acc []WorkerAcc, level int, dir Direction, frontier, seeded int64) LevelStats {
	ls := LevelStats{Level: level, Direction: dir, Frontier: frontier, Claimed: seeded}
	for w := range acc {
		ls.FrontierDegree += acc[w].FrontierDeg
		ls.ExaminedDRAM += acc[w].ExaminedDRAM
		ls.ExaminedNVM += acc[w].ExaminedNVM
		ls.Claimed += acc[w].Claimed
	}
	if dir != TopDown {
		ls.FrontierDegree = -1
	}
	return ls
}

// addLevel appends ls and folds its examined counts into the run totals.
func (r *Result) addLevel(ls LevelStats) {
	r.Levels = append(r.Levels, ls)
	if ls.Direction == TopDown {
		r.ExaminedTD += ls.Examined()
	} else {
		r.ExaminedBU += ls.Examined()
	}
	r.ExaminedNVM += ls.ExaminedNVM
}

// stacks returns every NVM storage stack behind the graphs (forward and
// backward), or nil when both are fully DRAM-resident.
func (h *Hybrid) stacks() []nvm.Storage { return stacksOf(h.fwd, h.Bwd) }

// layerTotals collects the cumulative per-layer counters of every stack.
func (h *Hybrid) layerTotals() nvm.StackStats { return nvm.CollectStacks(h.stacks()...) }

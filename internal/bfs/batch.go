package bfs

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// BatchRunner executes up to B <= 64 breadth-first searches simultaneously
// with bit-parallel frontiers (the MS-BFS scheme of Then et al., "The More
// the Merrier"): every vertex carries one 64-bit lane word per status
// structure (frontier / next / visited), bit l belonging to search lane l.
// A single word-level AND/OR advances all lanes at once, so one bottom-up
// sweep of the backward graph — and one pass of top-down reads through the
// shared NVM page cache — serves the whole batch. The alpha/beta direction
// rule is decided per batch from aggregate lane-bit occupancy; with B = 1
// it degenerates to the single-source rule.
//
// Determinism contract (same as Runner): virtual time and every lane's
// parent tree are independent of RealWorkers for DRAM-resident graphs. The
// top-down kernel achieves this with a two-phase level: a scatter phase
// computes claim masks against the *frozen* pre-level visited lanes and
// commits them with commutative atomic OR / min-CAS (so the final state is
// interleaving-independent), and a striped merge phase folds the next
// lanes into visited. The bottom-up kernel partitions vertices into
// 64-vertex blocks with a fixed block -> worker mapping, so every write is
// worker-local.
type BatchRunner struct {
	fwd  ForwardAccess
	bwd  BackwardAccess
	part *numa.Partition
	cfg  Config
	n    int64

	lanes      int    // capacity B of the lane words
	active     int    // lanes in use by the current RunBatch
	activeMask uint64 // low `active` bits

	nWorkers int
	cpn      int

	// BFS status data: one lane word per vertex per structure, one parent
	// array per lane. This is the MS-BFS memory trade — status data is B
	// times the single-source footprint, paid once per batch instead of
	// once per query.
	trees    [][]int64 // trees[lane][v]
	visited  *bitmap.Lanes
	frontier *bitmap.Lanes
	next     *bitmap.AtomicLanes
	frontQ   []int64
	nextQ    [][]int64 // per-worker frontQ extraction scratch

	clocks   []*vtime.Clock
	cursors  []ForwardCursor
	scanners []BackwardScan
	barrier  *vtime.Barrier

	pinned    bool
	pinnedDir Direction

	acc         []WorkerAcc
	offsScratch []int
}

// BatchResult is one batched BFS execution's outcome.
type BatchResult struct {
	// Roots holds the batch's source vertices; lane l searched Roots[l].
	Roots []int64
	// Trees holds one parent array per lane, aliasing the BatchRunner's
	// storage — valid until the next RunBatch call; use CloneTree to keep
	// one.
	Trees [][]int64
	// Visited counts the vertices reached by each lane.
	Visited []int64
	// Levels holds per-level statistics; Frontier and Claimed count
	// lane-bits (vertex-lane pairs), not distinct vertices.
	Levels      []LevelStats
	Time        vtime.Duration
	ExaminedTD  int64
	ExaminedBU  int64
	ExaminedNVM int64
	Switches    int
	// Resilience / Cache / Layers are per-batch counters with the same
	// semantics as Result's fields: one shared storage pass serves all
	// lanes, so they are amortized over the whole batch.
	Resilience Resilience
	Cache      nvm.CacheStats
	Layers     nvm.StackStats
}

// CloneTree returns a copy of lane l's parent array.
func (r *BatchResult) CloneTree(l int) []int64 {
	return append([]int64(nil), r.Trees[l]...)
}

// NewBatchRunner prepares a BatchRunner traversing up to lanes sources per
// batch over the given graphs. Status data is reused across RunBatch calls.
func NewBatchRunner(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, lanes int, cfg Config) (*BatchRunner, error) {
	if lanes < 1 || lanes > bitmap.MaxLanes {
		return nil, fmt.Errorf("bfs: batch width %d outside [1,%d]", lanes, bitmap.MaxLanes)
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if part.Topology != cfg.Topology {
		return nil, fmt.Errorf("bfs: partition topology %+v != config topology %+v",
			part.Topology, cfg.Topology)
	}
	n := int64(part.N)
	nw := cfg.Topology.TotalCores()
	r := &BatchRunner{
		fwd:      fwd,
		bwd:      bwd,
		part:     part,
		cfg:      cfg,
		n:        n,
		lanes:    lanes,
		nWorkers: nw,
		cpn:      cfg.Topology.CoresPerNode,
		trees:    make([][]int64, lanes),
		visited:  bitmap.NewLanes(int(n)),
		frontier: bitmap.NewLanes(int(n)),
		next:     bitmap.NewAtomicLanes(int(n)),
		nextQ:    make([][]int64, nw),
		clocks:   make([]*vtime.Clock, nw),
		cursors:  make([]ForwardCursor, nw),
		scanners: make([]BackwardScan, nw),
		barrier:  vtime.NewBarrier(cfg.Cost.Barrier),
		acc:      make([]WorkerAcc, nw),

		offsScratch: make([]int, nw+1),
	}
	for l := range r.trees {
		r.trees[l] = make([]int64, n)
	}
	for w := 0; w < nw; w++ {
		r.clocks[w] = vtime.NewClock(0)
		r.cursors[w] = fwd.NewCursor(r.clocks[w])
		r.scanners[w] = bwd.NewScanner(r.clocks[w])
		r.nextQ[w] = make([]int64, 0, 1024)
	}
	return r, nil
}

// Lanes returns the runner's batch capacity B.
func (r *BatchRunner) Lanes() int { return r.lanes }

// StatusBytes returns the DRAM footprint of the batched BFS status data
// (per-lane trees, lane words, frontier queues) — the Table II row scaled
// by the batch width.
func (r *BatchRunner) StatusBytes() int64 {
	b := int64(r.lanes) * r.n * 8 // per-lane trees
	b += 3 * r.n * 8              // visited/frontier/next lane words
	b += int64(cap(r.frontQ)) * 8
	for _, q := range r.nextQ {
		b += int64(cap(q)) * 8
	}
	return b
}

func (r *BatchRunner) parallel(fn func(w int) error) error {
	return runParallel(r.nWorkers, r.cfg.RealWorkers, fn)
}

func (r *BatchRunner) nodeOfWorker(w int) int { return w / r.cpn }

func (r *BatchRunner) stacks() []nvm.Storage { return stacksOf(r.fwd, r.bwd) }

func (r *BatchRunner) layerTotals() nvm.StackStats {
	return nvm.CollectStacks(r.stacks()...)
}

// decide applies the Section III-C switching rule to aggregate lane-bit
// occupancy: the thresholds scale by the active batch width, since a
// frontier of C lane-bits spread over B searches corresponds to C/B
// vertices of single-source frontier. With active == 1 this is exactly the
// single-source rule.
func (r *BatchRunner) decide(cur Direction, prevCount, curCount int64) Direction {
	if dir, forced := steerMode(r.pinned, r.pinnedDir, r.cfg.Mode); forced {
		return dir
	}
	return NextDirection(cur, prevCount, curCount, float64(r.n)*float64(r.active), r.cfg.Alpha, r.cfg.Beta)
}

// minClaim records v as a candidate parent for some (lane, vertex) slot,
// keeping the smallest claiming frontier vertex. Min is commutative and
// idempotent, so the final value is independent of claim interleaving —
// this is what makes the scatter phase's racing parent writes
// deterministic at the level boundary. -1 means unclaimed.
func minClaim(p *int64, v int64) {
	for {
		old := atomic.LoadInt64(p)
		if old >= 0 && old <= v {
			return
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return
		}
	}
}

// RunBatch executes one batched BFS from up to Lanes() roots (lane l
// searches roots[l]; duplicate roots are allowed) and returns its result.
// The returned Trees alias internal storage; see BatchResult.Trees.
func (r *BatchRunner) RunBatch(roots []int64) (*BatchResult, error) {
	if len(roots) == 0 || len(roots) > r.lanes {
		return nil, fmt.Errorf("bfs: batch of %d roots outside [1,%d]", len(roots), r.lanes)
	}
	for l, root := range roots {
		if root < 0 || root >= r.n {
			return nil, fmt.Errorf("bfs: lane %d root %d outside [0,%d)", l, root, r.n)
		}
	}
	r.active = len(roots)
	r.activeMask = bitmap.LaneMask(r.active)
	r.reset(r.active)
	// A completed batch ends on a barrier, but a failed one leaves the
	// clocks wherever its workers stopped; start every batch level.
	start := vtime.MaxOf(r.clocks)
	for _, c := range r.clocks {
		c.AdvanceTo(start)
	}
	layers0 := r.layerTotals()

	for l, root := range roots {
		r.trees[l][root] = root
		r.visited.Set(int(root), l)
		r.frontier.Set(int(root), l)
	}

	res := &BatchResult{
		Roots:   append([]int64(nil), roots...),
		Visited: make([]int64, r.active),
	}
	sw := sweep{fresh: true, cur: int64(r.active)}
	for level := 0; ; level++ {
		if level > int(r.n) {
			return nil, fmt.Errorf("bfs: batch level %d exceeds vertex count; cycle in control logic", level)
		}
		ls, degraded, switches, err := r.advance(level, &sw)
		if err != nil {
			return nil, err
		}
		res.Switches += switches
		if degraded != nil {
			res.Resilience.Degraded = append(res.Resilience.Degraded, *degraded)
		}
		res.Levels = append(res.Levels, ls)
		if sw.dir == TopDown {
			res.ExaminedTD += ls.Examined()
		} else {
			res.ExaminedBU += ls.Examined()
		}
		res.ExaminedNVM += ls.ExaminedNVM

		if ls.Claimed == 0 {
			break
		}
		if err := r.promote(); err != nil {
			return nil, err
		}
		sw.prev, sw.cur = sw.cur, ls.Claimed
	}
	res.Time = vtime.MaxOf(r.clocks) - start
	res.Trees = r.trees[:r.active]
	for v := 0; v < int(r.n); v++ {
		for w := r.visited.Word(v); w != 0; w &= w - 1 {
			res.Visited[bits.TrailingZeros64(w)]++
		}
	}
	res.Layers = r.layerTotals().Sub(layers0)
	res.Resilience.fromLayers(res.Layers)
	res.Resilience.Devices = nvm.CollectReplicaHealth(r.stacks()...)
	res.Cache = res.Layers.CacheView()
	return res, nil
}

// reset clears the status data of the first `lanes` lanes and unpins the
// runner (setup is not charged to BFS time, matching the Graph500 timing
// protocol which starts the clock at traversal).
func (r *BatchRunner) reset(lanes int) {
	for _, tree := range r.trees[:lanes] {
		for i := range tree {
			tree[i] = -1
		}
	}
	n := int(r.n)
	r.visited.ResetRange(0, n)
	r.frontier.ResetRange(0, n)
	r.next.ResetRange(0, n)
	r.frontQ = r.frontQ[:0]
	for w := range r.nextQ {
		r.nextQ[w] = r.nextQ[w][:0]
	}
	r.pinned = false
}

// sweep is the direction controller's state across the joint levels of the
// live lanes: the current direction and the lane-bit frontier sizes of the
// last two levels.
type sweep struct {
	dir       Direction
	prev, cur int64
	fresh     bool // no level has run since the lanes were last all idle
}

// advance runs one joint level, the step RunBatch's loop and
// BatchSession.Step share: pick the direction, run the level body, fold a
// rescue. A fresh cohort starts top-down (the paper's rule: BFS always
// begins at the source) unless the mode or a pin says otherwise; later
// levels apply the switching rule. It returns the level, the rescue event if
// a device died, and how many times the direction changed.
func (r *BatchRunner) advance(level int, sw *sweep) (ls LevelStats, degraded *DegradedEvent, switches int, err error) {
	if sw.fresh {
		sw.dir = TopDown
		if dir, forced := steerMode(r.pinned, r.pinnedDir, r.cfg.Mode); forced {
			sw.dir = dir
		}
		sw.prev, sw.fresh = 0, false
	} else if next := r.decide(sw.dir, sw.prev, sw.cur); next != sw.dir {
		sw.dir = next
		switches++
	}
	if ls, degraded, err = r.runLevel(level, sw.dir, sw.cur); err != nil {
		return ls, nil, 0, err
	}
	if degraded != nil {
		sw.dir = degraded.To
		switches++
	}
	return ls, degraded, switches, nil
}

// runLevel runs one joint level of the live lanes in direction dir: build
// the active-vertex list a top-down scatter wants, run the kernel, rescue a
// failed kernel, close on the barrier. A rescued level reports the event and
// carries the surviving direction in ls.Direction; the runner stays pinned
// to it.
func (r *BatchRunner) runLevel(level int, dir Direction, frontier int64) (ls LevelStats, degraded *DegradedEvent, err error) {
	// The frontier always lives in the lane words; the top-down kernel
	// additionally wants the active-vertex list.
	if dir == TopDown {
		if err := r.buildFrontQ(); err != nil {
			return ls, nil, err
		}
	}
	kernel := func() error {
		for w := range r.acc {
			r.acc[w] = WorkerAcc{}
		}
		if dir == TopDown {
			if err := r.runBatchTopDownLevel(); err != nil {
				return err
			}
			return r.mergeNext()
		}
		return r.runBatchBottomUpLevel()
	}
	start := vtime.MaxOf(r.clocks)
	var seeded int64
	if err := kernel(); err != nil {
		// A level kernel failed — usually a device declared dead after
		// exhausting retries. Rescue the level in the DRAM-resident
		// direction when there is one, pinned from here on: all lanes
		// survive together on the surviving direction.
		to, ok := rescueTarget(r.cfg.Mode, r.pinned, dir, r.fwd, r.bwd)
		if !ok {
			return ls, nil, fmt.Errorf("bfs: batch level %d (%s): %w", level, dir, err)
		}
		degraded = &DegradedEvent{Level: level, From: dir, To: to, Cause: err.Error()}
		if seeded, err = r.enterDegraded(dir, to); err != nil {
			return ls, nil, fmt.Errorf("bfs: batch level %d: degrading %s -> %s: %w", level, dir, to, err)
		}
		r.pinned, r.pinnedDir = true, to
		dir = to
		if err := kernel(); err != nil {
			return ls, nil, fmt.Errorf("bfs: batch level %d (%s, degraded): %w", level, dir, err)
		}
	}
	end := r.barrier.Sync(r.clocks)
	ls = foldLevel(r.acc, level, dir, frontier, seeded)
	ls.Start, ls.Time = start, end-start
	return ls, degraded, nil
}

// buildFrontQ extracts the vertices with any active frontier lane into the
// frontier queue, in vertex order within worker stripes. The scan streams
// the whole lane array — O(n) per top-down level — which is the batched
// analog of the single-source engine's per-level bitmap broadcast.
func (r *BatchRunner) buildFrontQ() error {
	n := int(r.n)
	err := r.parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		q := r.nextQ[w][:0]
		var t vtime.Duration
		t += r.cfg.Cost.Stream((hi - lo) * 8)
		for v := lo; v < hi; v++ {
			if r.frontier.Word(v)&r.activeMask != 0 {
				q = append(q, int64(v))
				t += r.cfg.Cost.QueueAppend
			}
		}
		r.nextQ[w] = q
		r.clocks[w].Advance(t)
		return nil
	})
	if err != nil {
		return err
	}
	return r.concatQueues()
}

// concatQueues concatenates the per-worker extraction queues into frontQ
// at precomputed offsets (same layout as Hybrid.gatherQueues; nothing to
// finalise or sort — stripes are already in vertex order).
func (r *BatchRunner) concatQueues() error {
	offs := r.offsScratch
	r.frontQ = concatLayout(r.frontQ, r.nextQ, offs)
	return r.parallel(func(w int) error {
		q := r.nextQ[w]
		if len(q) > 0 {
			copy(r.frontQ[offs[w]:offs[w+1]], q)
			r.clocks[w].Advance(r.cfg.Cost.Stream(len(q) * 16))
		}
		r.nextQ[w] = q[:0]
		return nil
	})
}

// promote installs the level's output lanes as the next frontier and
// clears the output, in worker stripes.
func (r *BatchRunner) promote() error {
	n := int(r.n)
	nextW := r.next.Words()
	frontW := r.frontier.Words()
	return r.parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		if lo >= hi {
			return nil
		}
		copy(frontW[lo:hi], nextW[lo:hi])
		for i := lo; i < hi; i++ {
			nextW[i] = 0
		}
		r.clocks[w].Advance(r.cfg.Cost.Stream((hi - lo) * 8 * 3))
		return nil
	})
}

// enterDegraded rescues a partially-executed batched level so it can be
// re-run in direction to, returning the number of lane-bit claims already
// committed (seeded).
//
// A failed top-down scatter has committed nothing to visited (the merge
// phase never ran): its partial next bits and parent entries are simply
// scrubbed and the bottom-up re-run re-derives every claim from scratch.
// A failed bottom-up level has committed its finished vertices completely
// (trees + visited + next are written together per vertex); those claims
// are kept and counted as seeded, and the top-down re-run skips them
// through the visited lanes.
func (r *BatchRunner) enterDegraded(from, to Direction) (int64, error) {
	n := int(r.n)
	if from == TopDown {
		nextW := r.next.Words()
		for v := 0; v < n; v++ {
			for w := nextW[v]; w != 0; w &= w - 1 {
				lane := bits.TrailingZeros64(w)
				if !r.visited.Test(v, lane) {
					r.trees[lane][v] = -1
				}
			}
			nextW[v] = 0
		}
		return 0, nil
	}
	// from == BottomUp: count the committed claims, then build the queue
	// representation the top-down re-run needs.
	var seeded int64
	nextW := r.next.Words()
	for v := 0; v < n; v++ {
		seeded += int64(bits.OnesCount64(nextW[v]))
	}
	if to == TopDown {
		if err := r.buildFrontQ(); err != nil {
			return 0, err
		}
	}
	return seeded, nil
}

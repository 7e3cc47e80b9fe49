package bfs

import (
	"fmt"
	"math/bits"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
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
	// The worker team: FrontQ is the top-down scatter's active-vertex list,
	// NextQ its per-worker extraction scratch.
	Team

	lanes      int    // capacity B of the lane words
	active     int    // lanes in use by the current RunBatch
	activeMask uint64 // low `active` bits

	// BFS status data: one lane word per vertex per structure, one parent
	// array per lane. This is the MS-BFS memory trade — status data is B
	// times the single-source footprint, paid once per batch instead of
	// once per query.
	trees    [][]int64 // trees[lane][v]
	visited  *bitmap.Lanes
	frontier *bitmap.Lanes
	next     *bitmap.AtomicLanes

	probes []lanesProbe // per-worker bottom-up probes
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
	// RunStats has the same semantics as in Result, except that Levels'
	// Frontier and Claimed count lane-bits (vertex-lane pairs), not distinct
	// vertices, and the storage counters are per batch: one shared storage
	// pass serves all lanes, so they are amortized over the whole batch.
	RunStats
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
	r := &BatchRunner{lanes: lanes}
	if err := r.Team.init("bfs: batch", fwd, bwd, part, cfg); err != nil {
		return nil, err
	}
	n := part.N
	r.trees = make([][]int64, lanes)
	for l := range r.trees {
		r.trees[l] = make([]int64, n)
	}
	r.visited = bitmap.NewLanes(n)
	r.frontier = bitmap.NewLanes(n)
	r.next = bitmap.NewAtomicLanes(n)

	// The scatter reads the frontier lane word on top of the dequeue.
	scatter := newScatter(r)
	r.setExpand(func(int) Expand { return scatter }, cfg.Cost.VertexOverhead+cfg.Cost.BitmapProbe)
	r.kernels[TopDown] = func() error {
		if err := r.sweepTopDown(); err != nil {
			return err
		}
		return r.mergeNext()
	}
	r.kernels[BottomUp] = r.runBatchBottomUpLevel
	r.degrade = r.enterDegraded
	r.probes = make([]lanesProbe, r.nWorkers)
	for w := range r.probes {
		newLanesProbe(&r.probes[w], r)
	}
	return r, nil
}

// Lanes returns the runner's batch capacity B.
func (r *BatchRunner) Lanes() int { return r.lanes }

// StatusBytes returns the DRAM footprint of the batched BFS status data
// (per-lane trees, lane words, frontier queues) — the Table II row scaled
// by the batch width.
func (r *BatchRunner) StatusBytes() int64 {
	b := int64(r.lanes) * r.N * 8 // per-lane trees
	b += 3 * r.N * 8              // visited/frontier/next lane words
	return b + r.queueBytes()
}

// decide applies the Section III-C switching rule to aggregate lane-bit
// occupancy: the thresholds scale by the active batch width, since a
// frontier of C lane-bits spread over B searches corresponds to C/B
// vertices of single-source frontier. With active == 1 this is exactly the
// single-source rule.
func (r *BatchRunner) decide(cur Direction, prevCount, curCount int64) Direction {
	if dir, forced := r.forced(); forced {
		return dir
	}
	return NextDirection(cur, prevCount, curCount, float64(r.N)*float64(r.active), r.Cfg.Alpha, r.Cfg.Beta)
}

// RunBatch executes one batched BFS from up to Lanes() roots (lane l
// searches roots[l]; duplicate roots are allowed) and returns its result.
// The returned Trees alias internal storage; see BatchResult.Trees.
func (r *BatchRunner) RunBatch(roots []int64) (*BatchResult, error) {
	if len(roots) == 0 || len(roots) > r.lanes {
		return nil, fmt.Errorf("bfs: batch of %d roots outside [1,%d]", len(roots), r.lanes)
	}
	for l, root := range roots {
		if root < 0 || root >= r.N {
			return nil, fmt.Errorf("bfs: lane %d root %d outside [0,%d)", l, root, r.N)
		}
	}
	r.active = len(roots)
	r.activeMask = bitmap.LaneMask(r.active)
	r.reset(r.active)

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
		if level > int(r.N) {
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
		res.addLevel(ls)

		if ls.Claimed == 0 {
			break
		}
		if err := r.promote(); err != nil {
			return nil, err
		}
		sw.prev, sw.cur = sw.cur, ls.Claimed
	}
	r.finish(&res.RunStats)
	res.Trees = r.trees[:r.active]
	for v := 0; v < int(r.N); v++ {
		for w := r.visited.Word(v); w != 0; w &= w - 1 {
			res.Visited[bits.TrailingZeros64(w)]++
		}
	}
	return res, nil
}

// reset clears the status data of the first `lanes` lanes and begins a run
// on the team (setup is not charged to BFS time, matching the Graph500 timing
// protocol which starts the clock at traversal).
func (r *BatchRunner) reset(lanes int) {
	for _, tree := range r.trees[:lanes] {
		for i := range tree {
			tree[i] = -1
		}
	}
	n := int(r.N)
	r.visited.ResetRange(0, n)
	r.frontier.ResetRange(0, n)
	r.next.ResetRange(0, n)
	r.begin()
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
// BatchSession.Step share: pick the direction, build the active-vertex list a
// top-down scatter wants beside the lane words, run the team's level step,
// fold a rescue. A fresh cohort starts top-down (the paper's rule: BFS always
// begins at the source) unless the mode or a pin says otherwise; later
// levels apply the switching rule. It returns the level, the rescue event if
// a device died — all lanes survive together on the surviving direction — and
// how many times the direction changed.
func (r *BatchRunner) advance(level int, sw *sweep) (ls LevelStats, degraded *DegradedEvent, switches int, err error) {
	if sw.fresh {
		sw.dir = TopDown
		if dir, forced := r.forced(); forced {
			sw.dir = dir
		}
		sw.prev, sw.fresh = 0, false
	} else if next := r.decide(sw.dir, sw.prev, sw.cur); next != sw.dir {
		sw.dir = next
		switches++
	}
	if sw.dir == TopDown {
		if err := r.buildFrontQ(); err != nil {
			return ls, nil, 0, err
		}
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

// buildFrontQ extracts the vertices with any active frontier lane into the
// frontier queue, in vertex order within worker stripes (so the concatenation
// has nothing to finalise or sort). The scan streams the whole lane array —
// O(n) per top-down level — which is the batched analog of the single-source
// engine's per-level bitmap broadcast.
func (r *BatchRunner) buildFrontQ() error {
	n := int(r.N)
	err := r.Parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		q := r.NextQ[w][:0]
		var t vtime.Duration
		t += r.Cfg.Cost.Stream((hi - lo) * 8)
		for v := lo; v < hi; v++ {
			if r.frontier.Word(v)&r.activeMask != 0 {
				q = append(q, int64(v))
				t += r.Cfg.Cost.QueueAppend
			}
		}
		r.NextQ[w] = q
		r.Clocks[w].Advance(t)
		return nil
	})
	if err != nil {
		return err
	}
	return r.concat(nil)
}

// promote installs the level's output lanes as the next frontier and
// clears the output, in worker stripes.
func (r *BatchRunner) promote() error {
	n := int(r.N)
	nextW := r.next.Words()
	frontW := r.frontier.Words()
	return r.Parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		if lo >= hi {
			return nil
		}
		copy(frontW[lo:hi], nextW[lo:hi])
		for i := lo; i < hi; i++ {
			nextW[i] = 0
		}
		r.Clocks[w].Advance(r.Cfg.Cost.Stream((hi - lo) * 8 * 3))
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
	n := int(r.N)
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

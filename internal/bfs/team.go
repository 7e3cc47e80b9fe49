package bfs

import (
	"fmt"
	"sync"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// WorkerAcc accumulates one simulated worker's per-level counters.
type WorkerAcc struct {
	ExaminedDRAM int64
	ExaminedNVM  int64
	Claimed      int64
	FrontierDeg  int64
	_            [4]int64 // avoid false sharing between workers
}

// Expand is the per-adjacency body of a top-down level: the one place the
// engines differ inside the shared sweep. It claims what it can of nbs, the
// adjacency of frontier vertex v on the calling worker's node, appends the
// vertices that now belong in the worker's output queue to nq, and returns the
// queue with the virtual time the claims cost (examining the edges is already
// charged). The per-edge loop lives inside the hook, so it stays monomorphic:
// the sweep makes one indirect call per frontier vertex, beside the interface
// call cursor.Neighbors already is.
type Expand func(v int64, nbs, nq []int64) ([]int64, vtime.Duration)

// Team is the simulated worker team a level-synchronous engine runs on: the
// graphs, one clock, forward cursor, backward scanner, counter block and
// output queue per worker, the frontier queue and the level barrier, with the
// top-down sweep, the run-kernel / rescue / re-run step and a run's begin and
// finish on them. Hybrid and BatchRunner each embed one; the exported fields
// are what their kernels (and internal/vp's) touch.
type Team struct {
	Bwd  BackwardAccess
	Part *numa.Partition
	Cfg  Config
	N    int64
	// CPN is the simulated cores per NUMA node; worker w runs on node
	// w / CPN.
	CPN int

	FrontQ []int64
	NextQ  [][]int64 // per-worker output queues

	Clocks   []*vtime.Clock
	Cursors  []ForwardCursor
	Scanners []BackwardScan
	// Acc holds the per-level, per-worker counters.
	Acc []WorkerAcc

	fwd      ForwardAccess
	name     string // prefixes the level step's errors
	nWorkers int
	barrier  *vtime.Barrier

	// The engine's level kernels by Direction (nil: not implemented) and its
	// rescue of a half-run level; set once by the embedding engine.
	kernels [2]func() error
	degrade func(from, to Direction) (seeded int64, err error)
	// The top-down sweep's per-worker hooks and per-vertex charge (setExpand).
	expand     []Expand
	vertexCost vtime.Duration

	// Degraded-mode state: after a device failure is rescued mid-run the
	// controller pins to the surviving direction for the rest of the run.
	pinned    bool
	pinnedDir Direction

	// Per-run baselines set by begin: the virtual start time, and the
	// stack-layer counters (which accumulate across runs).
	start   vtime.Duration
	layers0 nvm.StackStats

	// offs is concat's prefix-sum scratch, kept across levels so deep
	// traversals don't allocate per level.
	offs []int
}

// init sizes the team over the given graphs. cfg must already carry its
// defaults.
func (t *Team) init(name string, fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, cfg Config) error {
	if err := cfg.Topology.Validate(); err != nil {
		return err
	}
	if part.Topology != cfg.Topology {
		return fmt.Errorf("%s: partition topology %+v != config topology %+v",
			name, part.Topology, cfg.Topology)
	}
	nw := cfg.Topology.TotalCores()
	*t = Team{
		Bwd:      bwd,
		Part:     part,
		Cfg:      cfg,
		N:        int64(part.N),
		CPN:      cfg.Topology.CoresPerNode,
		NextQ:    make([][]int64, nw),
		Clocks:   make([]*vtime.Clock, nw),
		Cursors:  make([]ForwardCursor, nw),
		Scanners: make([]BackwardScan, nw),
		Acc:      make([]WorkerAcc, nw),
		fwd:      fwd,
		name:     name,
		nWorkers: nw,
		barrier:  vtime.NewBarrier(cfg.Cost.Barrier),
		offs:     make([]int, nw+1),
	}
	for w := 0; w < nw; w++ {
		t.Clocks[w] = vtime.NewClock(0)
		t.Cursors[w] = fwd.NewCursor(t.Clocks[w])
		t.Scanners[w] = bwd.NewScanner(t.Clocks[w])
		t.NextQ[w] = make([]int64, 0, 1024)
	}
	return nil
}

// setExpand builds the top-down sweep's hooks, once per worker for the life
// of the engine (built per level they cost an allocation per worker per
// level). vertexCost is charged per frontier vertex before its adjacency read.
func (t *Team) setExpand(hook func(w int) Expand, vertexCost vtime.Duration) {
	t.expand = make([]Expand, t.nWorkers)
	for w := range t.expand {
		t.expand[w] = hook(w)
	}
	t.vertexCost = vertexCost
}

// queueBytes returns the DRAM footprint of the frontier and output queues.
func (t *Team) queueBytes() int64 {
	b := int64(cap(t.FrontQ)) * 8
	for _, q := range t.NextQ {
		b += int64(cap(q)) * 8
	}
	return b
}

// Parallel runs fn(w) for every simulated worker w, multiplexed over the
// configured number of real goroutines. Errors are collected; the first
// non-nil one is returned.
func (t *Team) Parallel(fn func(w int) error) error {
	return runParallel(t.nWorkers, t.Cfg.RealWorkers, fn)
}

// runParallel multiplexes nWorkers simulated workers over at most
// realWorkers goroutines, assigning worker w to goroutine w % real so the
// simulated-worker -> work mapping (and thus every virtual clock) is
// independent of the real parallelism. Shared by Team and RefRunner.
func runParallel(nWorkers, realWorkers int, fn func(w int) error) error {
	// Assigned once: a variable reassigned anywhere is captured by the
	// goroutines below by reference, which heap-allocates it on every call,
	// the sequential ones included.
	real := min(realWorkers, nWorkers)
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
func (t *Team) NodeOfWorker(w int) int { return w / t.CPN }

// stacks returns every NVM storage stack behind the graphs (forward and
// backward), or nil when both are fully DRAM-resident.
func (t *Team) stacks() []nvm.Storage {
	var out []nvm.Storage
	if s, ok := t.fwd.(StorageStacks); ok {
		out = append(out, s.Stacks()...)
	}
	if s, ok := t.Bwd.(StorageStacks); ok {
		out = append(out, s.Stacks()...)
	}
	return out
}

// layerTotals collects the cumulative per-layer counters of every stack.
func (t *Team) layerTotals() nvm.StackStats { return nvm.CollectStacks(t.stacks()...) }

// begin starts a run: it empties the queues, unpins the controller, aligns
// the worker clocks and stamps the run's baselines. Setup is not charged,
// matching the Graph500 timing protocol which starts the clock at traversal.
func (t *Team) begin() {
	t.FrontQ = t.FrontQ[:0]
	for w := range t.NextQ {
		t.NextQ[w] = t.NextQ[w][:0]
	}
	t.pinned = false
	// A completed run ends on a barrier, but a failed one leaves the
	// clocks wherever its workers stopped; start every run level.
	t.start = vtime.MaxOf(t.Clocks)
	for _, c := range t.Clocks {
		c.AdvanceTo(t.start)
	}
	t.layers0 = t.layerTotals()
}

// finish closes a run's summary: its virtual time and the per-layer counter
// deltas since begin, with the legacy Resilience and Cache fields as views.
func (t *Team) finish(s *RunStats) {
	s.Time = vtime.MaxOf(t.Clocks) - t.start
	s.Layers = t.layerTotals().Sub(t.layers0)
	s.Resilience.fromLayers(s.Layers)
	s.Resilience.Devices = nvm.CollectReplicaHealth(t.stacks()...)
	s.Cache = s.Layers.CacheView()
}

// concat lays the per-worker queues end to end in FrontQ and empties them.
// Each worker copies its own queue to a precomputed offset, so the copy
// parallelizes; it is charged the bytes moved (read + write of the vertex IDs)
// plus whatever finalize, when set, charges for the queue.
func (t *Team) concat(finalize func(q []int64) vtime.Duration) error {
	offs := t.offs
	total := 0
	for w, q := range t.NextQ {
		offs[w] = total
		total += len(q)
	}
	offs[len(t.NextQ)] = total
	if cap(t.FrontQ) < total {
		t.FrontQ = make([]int64, total)
	}
	t.FrontQ = t.FrontQ[:total]
	return t.Parallel(func(w int) error {
		q := t.NextQ[w]
		if len(q) > 0 {
			copy(t.FrontQ[offs[w]:offs[w+1]], q)
			d := t.Cfg.Cost.Stream(len(q) * 16)
			if finalize != nil {
				d += finalize(q)
			}
			t.Clocks[w].Advance(d)
		}
		t.NextQ[w] = q[:0]
		return nil
	})
}

// runLevel runs one level over a frontier of the given size, installed in
// dir's representation: kernel, barrier, counters folded into the level's
// stats. If the kernel fails — usually a device declared dead after
// exhausting retries — and the other direction's graph is DRAM-resident, the
// level is rescued: the engine's degrade keeps what the failed kernel
// legitimately claimed and converts the frontier, the remainder is re-run in
// the surviving direction, and the team stays pinned to it for the rest of
// the run. A rescued level reports the event and carries the surviving
// direction in its stats.
func (t *Team) runLevel(level int, dir Direction, frontier int64) (ls LevelStats, ev *DegradedEvent, err error) {
	run := func(dir Direction) error {
		clear(t.Acc)
		return t.kernels[dir]()
	}
	start := vtime.MaxOf(t.Clocks)
	// seeded counts claims a failed kernel made before the level degraded;
	// their state is already set but the re-run's counters never saw them.
	var seeded int64
	if err := run(dir); err != nil {
		to, ok := t.rescueTarget(dir)
		if !ok || t.kernels[to] == nil {
			return ls, nil, fmt.Errorf("%s: level %d (%s): %w", t.name, level, dir, err)
		}
		ev = &DegradedEvent{Level: level, From: dir, To: to, Cause: err.Error()}
		if seeded, err = t.degrade(dir, to); err != nil {
			return ls, nil, fmt.Errorf("%s: level %d: degrading %s -> %s: %w", t.name, level, dir, to, err)
		}
		t.pinned, t.pinnedDir = true, to
		dir = to
		if err := run(dir); err != nil {
			return ls, nil, fmt.Errorf("%s: level %d (%s, degraded): %w", t.name, level, dir, err)
		}
	}
	end := t.barrier.Sync(t.Clocks)

	ls = LevelStats{Level: level, Direction: dir, Frontier: frontier, Claimed: seeded, Start: start, Time: end - start}
	for w := range t.Acc {
		ls.FrontierDegree += t.Acc[w].FrontierDeg
		ls.ExaminedDRAM += t.Acc[w].ExaminedDRAM
		ls.ExaminedNVM += t.Acc[w].ExaminedNVM
		ls.Claimed += t.Acc[w].Claimed
	}
	if dir != TopDown {
		ls.FrontierDegree = -1
	}
	return ls, ev, nil
}

// sweepTopDown expands FrontQ one level in the top-down direction: the
// paper's Section V-C loop, the only one in the tree. Every NUMA node's
// workers scan the whole frontier in ChunkSize chunks (chunk c goes to the
// node's worker c % CPN), but against the node's own forward-graph replica,
// which contains only the neighbors the node owns — so every write the hook
// makes is node-local (the NETAL delegation scheme of Section IV-A). A cursor
// implementing FrontierPrefetcher gets the worker's next chunk announced
// before the current one is scanned, so its readahead overlaps this chunk's
// expansion. What a claim is and costs is the worker's Expand hook.
func (t *Team) sweepTopDown() error {
	cm := &t.Cfg.Cost
	frontQ := t.FrontQ
	numChunks := (len(frontQ) + ChunkSize - 1) / ChunkSize
	return t.Parallel(func(w int) error {
		k := t.NodeOfWorker(w)
		clock := t.Clocks[w]
		cursor := t.Cursors[w]
		pf, _ := cursor.(FrontierPrefetcher)
		acc := &t.Acc[w]
		expand := t.expand[w]
		nq := t.NextQ[w]
		edgeCost := cm.EdgeCompute + cm.BitmapProbe
		for c := w % t.CPN; c < numChunks; c += t.CPN {
			lo := c * ChunkSize
			hi := min(lo+ChunkSize, len(frontQ))
			if pf != nil {
				// Announce the worker's *next* chunk so its adjacency
				// I/O is in flight while this chunk is expanded. The
				// frontier is sorted, so the spans coalesce into runs.
				if nlo := (c + t.CPN) * ChunkSize; nlo < len(frontQ) {
					pf.PrefetchFrontier(k, frontQ[nlo:min(nlo+ChunkSize, len(frontQ))])
				}
			}
			d := cm.Stream((hi - lo) * 8) // dequeue the chunk
			for _, v := range frontQ[lo:hi] {
				d += t.vertexCost
				if t.Part.NodeOf(int(v)) == k {
					// Statistics only (degree of the frontier
					// vertex, counted once across nodes).
					acc.FrontierDeg += t.Bwd.Degree(v)
				}
				clock.Advance(d) // the device sees the clock the read is issued at
				nbs, fromNVM, err := cursor.Neighbors(k, v)
				if err != nil {
					// Publish the claims made so far: their state is
					// already set, and the rescue must seed them into the
					// re-run (or drop them, as the engine's claim contract
					// says), or a tree loses subtrees.
					t.NextQ[w] = nq
					return err
				}
				d = edgeCost * vtime.Duration(len(nbs))
				if fromNVM {
					acc.ExaminedNVM += int64(len(nbs))
				} else {
					// Index entry fetch plus the streamed
					// adjacency bytes.
					d += cm.LocalAccess + cm.Stream(len(nbs)*8)
					acc.ExaminedDRAM += int64(len(nbs))
				}
				queued := len(nq)
				var claims vtime.Duration
				nq, claims = expand(v, nbs, nq)
				d += claims
				acc.Claimed += int64(len(nq) - queued)
			}
			clock.Advance(d)
		}
		t.NextQ[w] = nq
		return nil
	})
}

// RunStats is the run summary Result and BatchResult share; the team fills
// everything but Levels and the Examined totals (addLevel) and Switches.
type RunStats struct {
	Levels      []LevelStats
	Time        vtime.Duration
	ExaminedTD  int64
	ExaminedBU  int64
	ExaminedNVM int64
	// Switches counts direction changes, degraded rescues included.
	Switches int
	// Resilience summarizes the run's fault handling (zero for a healthy
	// run over healthy devices). Its counters are views over Layers.
	Resilience Resilience
	// Cache summarizes the run's page-cache activity (zero when no cache
	// is configured). It is a view over Layers.
	Cache nvm.CacheStats
	// Layers holds the per-run delta of every storage-stack layer's
	// counters (retry, cache, mirror, checksum, fault injection, ...),
	// aggregated across the forward and backward graphs' stacks. Nil for
	// fully DRAM-resident graphs.
	Layers nvm.StackStats
}

// addLevel appends ls and folds its examined counts into the run totals.
func (s *RunStats) addLevel(ls LevelStats) {
	s.Levels = append(s.Levels, ls)
	if ls.Direction == TopDown {
		s.ExaminedTD += ls.Examined()
	} else {
		s.ExaminedBU += ls.Examined()
	}
	s.ExaminedNVM += ls.ExaminedNVM
}

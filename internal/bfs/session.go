package bfs

import (
	"fmt"
	"math/bits"

	"semibfs/internal/bitmap"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// BatchSession is the continuous-batching view of a BatchRunner: instead of
// running a fixed batch of roots to completion (RunBatch), a session keeps
// the lane structures live across an open-ended stream of searches. New
// roots are admitted into free lanes *between* levels — they simply appear
// as fresh frontier bits and ride the next shared sweep alongside the lanes
// already in flight — and finished or cancelled lanes are released and
// scrubbed between levels, making their bits reusable immediately. This is
// what an always-on serving loop needs: one level of the joint traversal at
// a time, with the lane population allowed to change at every boundary.
//
// The MS-BFS kernels already filter every word through the active-lane mask,
// so a non-contiguous in-use mask works unchanged; the alpha/beta rule
// scales its thresholds by the live lane count exactly as RunBatch does.
//
// A session borrows the runner's status structures: while a session is in
// use, RunBatch must not be called (and vice versa — RunBatch resets the
// lanes a session thinks it owns). Sessions are not safe for concurrent use.
//
// Given the same admit/step/release sequence, virtual time and every lane's
// parent tree are the same on every run. A session opened without trees
// writes no parent entry at all, and every Step, Release and count it
// reports is the same as a tree-keeping session's: the modelled engine
// still builds and scrubs 64 trees, only the host skips them.
type BatchSession struct {
	r *BatchRunner

	inUse uint64 // lanes currently owned by live searches
	sw    sweep
	level int // session-monotone step counter

	roots    [bitmap.MaxLanes]int64
	visCount [bitmap.MaxLanes]int64

	// per-worker per-lane claim counters for the post-level accounting scan
	laneAcc [][bitmap.MaxLanes]int64
	// Release's scratch: the lanes being released and each worker's count
	// of surviving frontier bits
	released  []int
	remaining []int64
}

// SessionLevel reports one Step's outcome.
type SessionLevel struct {
	// Level is the session-monotone step index (not any single search's
	// depth — lanes admitted at different times are at different depths).
	Level     int
	Direction Direction
	// Start / End bound the level in virtual time.
	Start, End vtime.Duration
	// Claimed counts lane-bits claimed across all live lanes; LaneClaims
	// breaks it down per lane.
	Claimed    int64
	LaneClaims [bitmap.MaxLanes]int64
	// Finished flags the lanes whose searches completed this level (claimed
	// nothing): their trees are final and they must be released before the
	// next Step.
	Finished uint64
	// Degraded holds the level's rescue events, if a device died mid-level
	// and a DRAM-resident direction absorbed the whole live cohort.
	Degraded []DegradedEvent
}

// OpenSession resets the runner's lane structures and returns a session
// over them; keepTrees says whether it writes each lane's parent array (a
// server that returns no trees passes false, and Tree then returns nil).
// The session borrows the runner exclusively; see BatchSession.
func (r *BatchRunner) OpenSession(keepTrees bool) *BatchSession {
	r.keepTrees = keepTrees
	r.reset(r.lanes)
	return &BatchSession{
		r:         r,
		sw:        sweep{fresh: true},
		laneAcc:   make([][bitmap.MaxLanes]int64, r.nWorkers),
		released:  make([]int, 0, bitmap.MaxLanes),
		remaining: make([]int64, r.nWorkers),
	}
}

// InUse returns the mask of lanes owned by live searches.
func (s *BatchSession) InUse() uint64 { return s.inUse }

// FreeLanes returns the mask of admittable lanes.
func (s *BatchSession) FreeLanes() uint64 {
	return bitmap.LaneMask(s.r.lanes) &^ s.inUse
}

// Now returns the session's virtual time: the furthest worker clock.
func (s *BatchSession) Now() vtime.Duration { return vtime.MaxOf(s.r.Clocks) }

// AdvanceTo idles every worker clock forward to at least t — how a serving
// loop waits for the next arrival when no lanes are live. It never moves
// time backwards.
func (s *BatchSession) AdvanceTo(t vtime.Duration) {
	for _, c := range s.r.Clocks {
		c.AdvanceTo(t)
	}
}

// Level returns the number of Steps taken so far.
func (s *BatchSession) Level() int { return s.level }

// Pinned reports whether a mid-session device death pinned the traversal
// to a surviving direction (a session-permanent condition: the dead device
// does not come back between cohorts).
func (s *BatchSession) Pinned() (Direction, bool) { return s.r.pinnedDir, s.r.pinned }

// Root returns the root lane l is (or was last) searching.
func (s *BatchSession) Root(l int) int64 { return s.roots[l] }

// VisitedCount returns the number of vertices lane l's search has claimed
// so far (1 at admission — the root — growing with each Step).
func (s *BatchSession) VisitedCount(l int) int64 { return s.visCount[l] }

// Tree returns lane l's parent array, aliasing session storage: it is valid
// until the lane is released or the session reset. Clone it to keep it. A
// session opened without trees returns nil.
func (s *BatchSession) Tree(l int) []int64 {
	if !s.r.keepTrees {
		return nil
	}
	return s.r.trees[l]
}

// TraversedEdges returns the TEPS numerator of every live lane in mask, read
// from the session's visited lanes in one pass over the degree table
// (BatchRunner.TraversedEdges): call it for a level's Finished lanes before
// releasing them.
func (s *BatchSession) TraversedEdges(mask uint64, degrees []int64) [bitmap.MaxLanes]int64 {
	return s.r.TraversedEdges(mask&s.inUse, degrees)
}

// LayerTotals returns the cumulative storage-stack counters under the
// session's graphs, read through the engine's planned record; serving
// layers diff snapshots for per-cohort stats.
func (s *BatchSession) LayerTotals() nvm.StackStats { return s.r.col.Totals() }

// Admit starts a new search for root on free lane l, effective at the next
// Step: the root becomes a frontier bit and rides the joint sweep. Admission
// is a level-boundary operation; it charges no virtual time of its own.
func (s *BatchSession) Admit(l int, root int64) error {
	if l < 0 || l >= s.r.lanes {
		return fmt.Errorf("bfs: session lane %d outside [0,%d)", l, s.r.lanes)
	}
	if s.inUse&(1<<uint(l)) != 0 {
		return fmt.Errorf("bfs: session lane %d already in use", l)
	}
	if root < 0 || root >= s.r.N {
		return fmt.Errorf("bfs: root %d outside [0,%d)", root, s.r.N)
	}
	if s.r.keepTrees {
		s.r.trees[l][root] = root
	}
	s.r.visited.Set(int(root), l)
	s.r.frontier.Set(int(root), l)
	s.inUse |= 1 << uint(l)
	s.roots[l] = root
	s.visCount[l] = 1
	s.sw.cur++
	return nil
}

// Step advances every live lane by one joint BFS level and reports the
// outcome. Lanes that claim nothing are finished; the caller must Release
// them (collecting trees first) before the next Step. On an unrescuable
// device death the error is returned with the lane structures dirty —
// Release scrubs them, so the caller fails the in-flight searches and
// releases their lanes exactly as it would cancel them.
func (s *BatchSession) Step() (*SessionLevel, error) {
	r := s.r
	if s.inUse == 0 {
		return nil, fmt.Errorf("bfs: session step with no live lanes")
	}
	r.active = bits.OnesCount64(s.inUse)
	r.activeMask = s.inUse

	out := &SessionLevel{Level: s.level, Start: s.Now()}
	// Same step as RunBatch; a rescue pulls the whole live cohort onto a
	// DRAM-resident direction, pinned for the rest of the session.
	ls, degraded, _, err := r.advance(s.level, &s.sw)
	if err != nil {
		return nil, err
	}
	if degraded != nil {
		out.Degraded = append(out.Degraded, *degraded)
	}
	out.End = ls.Start + ls.Time
	out.Direction = s.sw.dir

	// Per-lane accounting: after the level, next holds exactly the lane
	// bits newly claimed this level — the top-down merge leaves only claims
	// it folded into visited, the bottom-up kernel commits visited and next
	// together, and a bottom-up level rescued mid-flight keeps its committed
	// ("seeded") claims in next. One striped scan gives each lane's claim
	// count; a live lane that claimed nothing has exhausted its component.
	if err := s.countNext(); err != nil {
		return nil, err
	}
	for w := range s.laneAcc {
		for l := 0; l < r.lanes; l++ {
			out.LaneClaims[l] += s.laneAcc[w][l]
		}
	}
	for l := 0; l < r.lanes; l++ {
		s.visCount[l] += out.LaneClaims[l]
		out.Claimed += out.LaneClaims[l]
		if s.inUse&(1<<uint(l)) != 0 && out.LaneClaims[l] == 0 {
			out.Finished |= 1 << uint(l)
		}
	}
	if out.Claimed > 0 {
		if err := r.promote(); err != nil {
			return nil, err
		}
	}
	s.sw.prev, s.sw.cur = s.sw.cur, out.Claimed
	s.level++
	return out, nil
}

// countNext tallies next's set bits per lane into the per-worker scratch,
// in the same stripes (and with the same streamed cost) as promote.
func (s *BatchSession) countNext() error {
	r := s.r
	n := int(r.N)
	nextW := r.next.Words()
	return r.Parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		acc := &s.laneAcc[w]
		*acc = [bitmap.MaxLanes]int64{}
		if lo >= hi {
			return nil
		}
		for v := lo; v < hi; v++ {
			for word := nextW[v] & r.activeMask; word != 0; word &= word - 1 {
				acc[bits.TrailingZeros64(word)]++
			}
		}
		r.Clocks[w].Advance(r.Cfg.Cost.Stream((hi - lo) * 8))
		return nil
	})
}

// Release returns the lanes in mask to the free pool, scrubbing every trace
// of their searches — tree entries, visited/frontier/next bits — so the
// next admission starts clean. It serves finished lanes, cancelled or
// expired searches, and the cleanup after an unrescuable Step error alike.
// The scrub streams the status structures in worker stripes and charges
// virtual time accordingly (reclamation is not free), the lanes' trees
// included even when the session keeps none.
func (s *BatchSession) Release(mask uint64) error {
	r := s.r
	mask &= s.inUse
	if mask == 0 {
		return nil
	}
	n := int(r.N)
	lanes := s.released[:0]
	for m := mask; m != 0; m &= m - 1 {
		lanes = append(lanes, bits.TrailingZeros64(m))
	}
	visW := r.visited.Words()
	frontW := r.frontier.Words()
	nextW := r.next.Words()
	keep := ^mask
	newInUse := s.inUse &^ mask
	remaining := s.remaining
	err := r.Parallel(func(w int) error {
		lo, hi := stripe(n, r.nWorkers, w)
		if lo >= hi {
			return nil
		}
		var rem int64
		for v := lo; v < hi; v++ {
			visW[v] &= keep
			nextW[v] &= keep
			frontW[v] &= keep
			rem += int64(bits.OnesCount64(frontW[v] & newInUse))
		}
		if r.keepTrees {
			for _, l := range lanes {
				tree := r.trees[l][lo:hi]
				for i := range tree {
					tree[i] = -1
				}
			}
		}
		remaining[w] = rem
		r.Clocks[w].Advance(r.Cfg.Cost.Stream((hi - lo) * 8 * (3 + len(lanes))))
		return nil
	})
	if err != nil {
		return err
	}
	s.inUse = newInUse
	for _, l := range lanes {
		s.roots[l] = 0
		s.visCount[l] = 0
	}
	// The joint frontier shrank; the direction rule's occupancy must track
	// the surviving lanes only.
	s.sw.cur = 0
	for _, rem := range remaining {
		s.sw.cur += rem
	}
	if s.inUse == 0 {
		s.sw.fresh = true
	}
	return nil
}

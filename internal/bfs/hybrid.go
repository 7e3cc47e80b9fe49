package bfs

import (
	"fmt"

	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// Kernels is the algorithm-specific half of a single-source hybrid
// traversal: the top-down per-adjacency hook, the bottom-up level kernel,
// and the few policy points where Runner and the vertex-program engine
// (internal/vp) differ. The loop calls a hook at most once per level, once
// per worker queue or — Push's — once per frontier vertex's adjacency, never
// per edge, so the per-edge code stays monomorphic inside each engine.
type Kernels struct {
	// Name prefixes the loop's errors ("bfs", "vp: pagerank").
	Name string
	// Push builds worker w's Expand hook for the team's top-down sweep; Init
	// calls it once per worker. The hook's claims go to NextQ[w], and a
	// failing sweep leaves the claims made so far published there for the
	// rescue. Pull runs one whole bottom-up level: it probes FrontBM[node],
	// sets its claims in NextBM and counts into Acc[w]. (The bottom-up scan
	// is not shared the same way on purpose; see DESIGN.md.) A nil kernel is
	// a direction the algorithm does not implement.
	Push func(w int) Expand
	Pull func() error
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

// Hybrid is the single-source hybrid level loop of Section III — choose a
// direction by the alpha/beta rule, run a top-down or bottom-up level,
// convert the frontier, repeat — on a worker Team, together with the frontier
// in its bitmap representation. Runner and vp.Engine each embed one and
// supply the Kernels.
type Hybrid struct {
	Team

	FrontBM []*bitmap.Atomic // per-node frontier replicas
	NextBM  *bitmap.Bitmap

	k Kernels
}

// Init sizes the shared traversal state over the given graphs. cfg must
// already carry its defaults; k may capture the embedding engine, whose state
// Push's hooks close over must exist by now.
func (h *Hybrid) Init(fwd ForwardAccess, bwd BackwardAccess, part *numa.Partition, cfg Config, k Kernels) error {
	if err := h.Team.init(k.Name, fwd, bwd, part, cfg); err != nil {
		return err
	}
	h.FrontBM = make([]*bitmap.Atomic, cfg.Topology.Nodes)
	for node := range h.FrontBM {
		h.FrontBM[node] = bitmap.NewAtomic(part.N)
	}
	h.NextBM = bitmap.New(part.N)
	h.k = k
	if k.Push != nil {
		h.setExpand(k.Push, cfg.Cost.VertexOverhead)
		h.kernels[TopDown] = h.sweepTopDown
	}
	h.kernels[BottomUp] = k.Pull
	h.degrade = h.enterDegraded
	return nil
}

// StatusBytes returns the DRAM footprint of the shared traversal state
// (frontier replicas, next bitmap, queues).
func (h *Hybrid) StatusBytes() int64 {
	b := int64(len(h.FrontBM)) * ((h.N + 7) / 8) // frontier replicas
	b += (h.N + 7) / 8                           // next bitmap
	return b + h.queueBytes()
}

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

// forced applies the two overrides every single-node engine puts before
// the alpha/beta rule. A degraded run is pinned: the rule must never steer
// the traversal back onto a dead device. A forced mode is a contract.
func (t *Team) forced() (Direction, bool) {
	switch {
	case t.pinned:
		return t.pinnedDir, true
	case t.Cfg.Mode == ModeTopDownOnly:
		return TopDown, true
	case t.Cfg.Mode == ModeBottomUpOnly:
		return BottomUp, true
	}
	return 0, false
}

// decide picks a level's direction from the frontier sizes of the previous
// two levels.
func (h *Hybrid) decide(level int, cur Direction, prevCount, curCount int64) Direction {
	if dir, forced := h.forced(); forced {
		return dir
	}
	rule := NextDirection(cur, prevCount, curCount, float64(h.N), h.Cfg.Alpha, h.Cfg.Beta)
	if h.k.Steer != nil {
		return h.k.Steer(level, curCount, rule)
	}
	return rule
}

// Begin starts a run: it clears the shared traversal state, aligns the
// worker clocks and stamps the run's start (Team.begin). The caller then
// installs the level-0 frontier — in FrontQ, or straight into the replicas,
// charged (ConvertFrontier) or not as its algorithm defines — and calls
// Traverse.
func (h *Hybrid) Begin() {
	h.NextBM.Reset()
	for _, bm := range h.FrontBM {
		bm.Reset()
	}
	h.begin()
}

// Traverse runs levels from a frontier of curCount vertices, installed in
// dir's representation since Begin, until a level claims nothing or the
// kernels report convergence. The result's Visited counts the claims (not
// the initial frontier); Root and Tree are the caller's to fill.
func (h *Hybrid) Traverse(dir Direction, curCount int64) (res *Result, converged bool, err error) {
	res = &Result{}
	prevCount := int64(0)
	for level := 0; curCount > 0; level++ {
		if level > h.k.MaxLevels {
			return nil, false, fmt.Errorf("%s: level %d exceeds bound %d; cycle in control logic or no convergence",
				h.k.Name, level, h.k.MaxLevels)
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
		ls, rescue, err := h.runLevel(level, dir, curCount)
		if err != nil {
			return nil, false, err
		}
		if rescue != nil {
			res.Resilience.Degraded = append(res.Resilience.Degraded, *rescue)
			res.Switches++
			dir = rescue.To
		}
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
	h.finish(&res.RunStats)
	return res, converged, nil
}

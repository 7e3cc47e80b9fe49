// Package vp generalizes the hybrid BFS engine of internal/bfs into a
// reusable vertex-program framework over the same semi-external storage
// stack, in the FlashGraph/Graphyti mold: vertex state lives in DRAM, the
// adjacency lives wherever the scenario placed it (DRAM CSR replicas or an
// NVM stack behind cache/mirror/checksum/compression layers), and the
// engine drives scatter (push, over the forward graph) and gather (pull,
// over the backward graph) sweeps with the paper's alpha/beta
// direction-switching rule, NUMA-partitioned worker loops, sorted-gather
// frontiers, frontier-driven prefetch, and degraded-mode rescue.
//
// A Program supplies only the per-vertex state and the per-edge/per-vertex
// hooks. The level loop itself is not this package's: Engine embeds
// bfs.Hybrid — the one single-source skeleton bfs.Runner also runs on,
// owner of the worker team and its top-down sweep, the frontier queue, the
// per-node frontier bitmap replicas, the next bitmap, the direction
// controller and the degraded rescue — and supplies as its bfs.Kernels the
// per-adjacency push hook of push.go and the pull kernel of pull.go,
// together with the claim-deduplication bitmap the hook needs and the
// virtual-time cost of a claim. BFS is one program among
// several — see bfsprog.go, components.go, and pagerank.go — and the BFS
// program is held to bit-identical parent trees against bfs.Runner as the
// framework's correctness anchor.
//
// # Hook order
//
// One Run executes, per level (direction chosen by hints, the alpha/beta
// rule, or degraded-mode pinning):
//
//	push level:  PushEdge(w, src, dst) for every edge out of the frontier;
//	             a true return enters dst into an engine-owned TestAndSet
//	             dedup, and the winner is queued. Claims become final at
//	             the level boundary, when the engine gathers the queues and
//	             calls Activate(dst) for each claimed vertex.
//	pull level:  for every vertex v with PullCandidate(v): BeginPull(w, v),
//	             then PullEdge(w, v, nb, inFrontier) over v's backward
//	             adjacency until it returns false (early exit), then
//	             EndPull(w, v); a true return marks v claimed immediately.
//	boundary:    EndLevel(level), then Converged() is consulted; a level
//	             claiming nothing also terminates the run.
//
// # State ownership
//
// The program owns all per-vertex state and any per-worker scratch
// (indexed by the simulated worker id w). During a push level the state of
// frontier vertices must be treated as frozen — PushEdge may run
// concurrently from many workers and must use atomic idempotent updates
// (min-CAS and friends) on destination state so results are independent of
// worker count and I/O completion order. During a pull level the engine
// guarantees each candidate v is visited by exactly one worker (bitmap
// words are worker-exclusive), so EndPull may write v's state plainly.
//
// # Direction hints
//
// Hint lets a program bias or pin the sweep direction: HintAuto defers to
// the alpha/beta rule (BFS), HintPull forces dense gather sweeps
// (PageRank), and a program may switch hints level by level (connected
// components pulls while the frontier is dense, then lets the rule take
// over). Hints are clamped to the program's declared Caps and are
// overridden by degraded-mode pinning, which never steers a run back onto
// a dead device.
package vp

import (
	"semibfs/internal/bfs"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// Hint is a program's per-level direction preference.
type Hint int

const (
	// HintAuto defers to the engine's alpha/beta switching rule.
	HintAuto Hint = iota
	// HintPush requests a scatter (top-down) sweep over the forward graph.
	HintPush
	// HintPull requests a gather (bottom-up) sweep over the backward graph.
	HintPull
)

// Caps declares which kernel directions a program implements.
type Caps uint8

const (
	// CapPush marks programs implementing the scatter hooks.
	CapPush Caps = 1 << iota
	// CapPull marks programs implementing the gather hooks.
	CapPull
)

// Program is one vertex algorithm run by the Engine. See the package
// comment for the hook order, state-ownership rules, and hint semantics.
type Program interface {
	// Name labels the program in reports and errors ("bfs", "cc", ...).
	Name() string
	// Caps declares the implemented kernel directions.
	Caps() Caps
	// Monotone reports whether an activation is permanent (BFS: a claimed
	// vertex never re-enters the frontier). The degraded-mode rescue seeds
	// a failed kernel's partial claims for monotone programs — the re-run
	// skips them — and discards them for non-monotone programs, whose
	// idempotent state updates the re-run recomputes exactly once.
	Monotone() bool
	// Setup sizes the program's state for n vertices and workers simulated
	// workers. Called once by NewEngine.
	Setup(n int64, workers int)
	// Reset re-initializes the state for a run from root (programs that
	// ignore the root accept any value).
	Reset(root int64) error
	// InitialFrontier emits the level-0 frontier in ascending vertex order.
	InitialFrontier(root int64, emit func(v int64))
	// Hint returns the program's direction preference for level, given the
	// current frontier size.
	Hint(level int, frontier int64) Hint
	// PushEdge processes frontier edge src -> dst during a push level and
	// reports whether dst should join the next frontier. May run
	// concurrently; state updates must be atomic and idempotent.
	PushEdge(w int, src, dst int64) bool
	// PullCandidate reports whether v must be examined by a pull level.
	PullCandidate(v int64) bool
	// BeginPull resets worker w's accumulator for v's gather.
	BeginPull(w int, v int64)
	// PullEdge folds backward edge v <- nb into the accumulator; returning
	// false terminates v's scan early. inFrontier tells whether nb is in
	// the current frontier (probed from the node-local replica).
	PullEdge(w int, v, nb int64, inFrontier bool) bool
	// EndPull finalizes v and reports whether v was claimed (changed).
	EndPull(w int, v int64) bool
	// Activate finalizes a push-level claim of v at the gather boundary.
	Activate(v int64)
	// EndLevel runs at the level boundary, single-threaded (double-buffer
	// swaps, residual reductions).
	EndLevel(level int)
	// Converged reports whether the run may stop even though the last
	// level still claimed vertices (tolerance tests, iteration caps).
	Converged() bool
}

// Config parameterizes an Engine. The embedded bfs.Config supplies the
// topology, cost model, alpha/beta thresholds, traversal mode, and real
// worker bound, with the same defaults as the BFS runner.
type Config struct {
	bfs.Config
	// MaxLevels bounds the level loop; 0 selects n + 64 (any frontier
	// program converges within n levels; the slack covers fixed-point
	// programs on tiny graphs).
	MaxLevels int
}

// WithDefaults returns c with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	c.Config = c.Config.WithDefaults()
	return c
}

// Result is one vertex-program execution's outcome. The per-vertex output
// (parent tree, labels, ranks) stays with the Program.
type Result struct {
	// Root is the Run argument (meaningful for rooted programs only).
	Root int64
	// Frontier0 is the initial frontier's size; Claimed the total claims
	// across all levels (excluding the initial frontier).
	Frontier0 int64
	Claimed   int64
	// Levels records per-level activity in BFS terms: push levels are
	// TopDown, pull levels BottomUp.
	Levels []bfs.LevelStats
	// Iterations is the number of levels executed.
	Iterations int
	// Converged reports whether the program's convergence test ended the
	// run (false when the frontier simply drained).
	Converged bool
	Time      vtime.Duration
	// ExaminedPush / ExaminedPull / ExaminedNVM count neighbor IDs
	// examined by each kernel and from NVM overall.
	ExaminedPush int64
	ExaminedPull int64
	ExaminedNVM  int64
	// Switches counts direction changes (including degraded rescues).
	Switches int
	// Resilience, Cache, and Layers mirror bfs.Result: per-run views over
	// the storage stacks' layer counters.
	Resilience bfs.Resilience
	Cache      nvm.CacheStats
	Layers     nvm.StackStats
}

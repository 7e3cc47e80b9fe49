package vp

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// Engine executes vertex programs over one forward/backward graph pair. It
// is the shared hybrid level loop (bfs.Hybrid, which owns the worker team,
// the frontier, the top-down sweep and the direction controller) driven by
// the generic push hook of push.go and pull kernel of pull.go, which call the
// Program per edge and per vertex; the per-vertex state that is bfs.Runner's
// tree/visited pair lives in the Program.
type Engine struct {
	bfs.Hybrid
	prog Program
	cfg  Config

	// dedup arbitrates next-queue membership during a push level, exactly
	// as bfs.Runner's claim bitmap does: PushEdge's idempotent state
	// update makes the claim, TestAndSet picks exactly one worker to
	// enqueue the vertex. Unlike the BFS claim bitmap, bits are cleared at
	// gather time — non-monotone programs (label propagation) re-activate
	// vertices in later levels, so a claim bit must not outlive its level.
	// For BFS this is equivalence-neutral: a gathered vertex is visited,
	// so PushEdge never exposes it to the dedup again.
	dedup  *bitmap.Atomic
	probes []pullProbe // per-worker gather probes
}

// NewEngine prepares an Engine running prog over the given graphs. It
// calls prog.Setup once; a Program instance belongs to one Engine.
func NewEngine(fwd bfs.ForwardAccess, bwd bfs.BackwardAccess, part *numa.Partition, prog Program, cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	caps := prog.Caps()
	if caps&(CapPush|CapPull) == 0 {
		return nil, fmt.Errorf("vp: program %q implements no kernel direction", prog.Name())
	}
	if cfg.Mode == bfs.ModeTopDownOnly && caps&CapPush == 0 {
		return nil, fmt.Errorf("vp: program %q cannot run top-down-only (no push kernel)", prog.Name())
	}
	if cfg.Mode == bfs.ModeBottomUpOnly && caps&CapPull == 0 {
		return nil, fmt.Errorf("vp: program %q cannot run bottom-up-only (no pull kernel)", prog.Name())
	}
	e := &Engine{prog: prog, cfg: cfg, dedup: bitmap.NewAtomic(part.N)}
	k := bfs.Kernels{
		Name:     "vp: " + prog.Name(),
		Finalize: e.activate,
		Monotone: prog.Monotone(),
		Steer:    e.steer,
		EndLevel: func(level int) bool {
			prog.EndLevel(level)
			return prog.Converged()
		},
		// Any frontier program converges within n levels; the slack covers
		// fixed-point programs on tiny graphs.
		MaxLevels: part.N + 64,
	}
	if cfg.MaxLevels > 0 {
		k.MaxLevels = cfg.MaxLevels
	}
	if caps&CapPush != 0 {
		k.Push = func(w int) bfs.Expand { return newPushHook(w, prog, e.dedup, &cfg.Cost) }
	}
	if caps&CapPull != 0 {
		k.Pull = e.runPullLevel
	}
	if err := e.Init(fwd, bwd, part, cfg.Config, k); err != nil {
		return nil, err
	}
	e.probes = make([]pullProbe, len(e.Clocks))
	for w := range e.probes {
		newPullProbe(&e.probes[w], w, prog, e.FrontBM[e.NodeOfWorker(w)])
	}
	prog.Setup(e.N, len(e.Clocks))
	return e, nil
}

// Program returns the engine's program.
func (e *Engine) Program() Program { return e.prog }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// StatusBytes returns the DRAM footprint of the engine-owned traversal
// state (bitmaps and queues); the program's per-vertex state is extra.
func (e *Engine) StatusBytes() int64 {
	return (e.N+7)/8 + e.Hybrid.StatusBytes() // dedup bitmap + shared state
}

// activate is the engine's gather hook (bfs.Kernels.Finalize): where the
// BFS runner marks gathered claims visited, the engine calls
// Program.Activate and clears the claim's dedup bit so non-monotone
// programs can re-activate the vertex in a later level — two marks per
// claim against the runner's one.
func (e *Engine) activate(q []int64) vtime.Duration {
	for _, v := range q {
		e.prog.Activate(v)
		e.dedup.Clear(int(v))
	}
	return vtime.Duration(len(q)) * 2 * e.Cfg.Cost.BitmapProbe
}

// steer wraps the alpha/beta rule's answer for a level (bfs.Kernels.Steer):
// the program's hint wins over the rule, and either is clamped to the
// kernels the program implements.
func (e *Engine) steer(level int, frontier int64, rule bfs.Direction) bfs.Direction {
	dir := rule
	switch e.prog.Hint(level, frontier) {
	case HintPush:
		dir = bfs.TopDown
	case HintPull:
		dir = bfs.BottomUp
	}
	caps := e.prog.Caps()
	if dir == bfs.TopDown && caps&CapPush == 0 {
		return bfs.BottomUp
	}
	if dir == bfs.BottomUp && caps&CapPull == 0 {
		return bfs.TopDown
	}
	return dir
}

// Run executes one program run from root (ignored by unrooted programs)
// and returns its result. Per-vertex output stays with the Program.
func (e *Engine) Run(root int64) (*Result, error) {
	if err := e.prog.Reset(root); err != nil {
		return nil, err
	}
	e.dedup.Reset()
	e.Begin()
	e.prog.InitialFrontier(root, func(v int64) { e.FrontQ = append(e.FrontQ, v) })
	count := int64(len(e.FrontQ))

	// Level 0's direction: a forced mode wins, then the program's level-0
	// hint, then top-down (the paper's rule: BFS always starts top-down
	// from the source). A level-0 pull pays for its frontier conversion.
	var dir bfs.Direction
	switch e.Cfg.Mode {
	case bfs.ModeTopDownOnly:
		dir = bfs.TopDown
	case bfs.ModeBottomUpOnly:
		dir = bfs.BottomUp
	default:
		dir = e.steer(0, count, bfs.TopDown)
	}
	if dir == bfs.BottomUp && count > 0 {
		if err := e.ConvertFrontier(bfs.TopDown, bfs.BottomUp); err != nil {
			return nil, err
		}
	}
	run, converged, err := e.Traverse(dir, count)
	if err != nil {
		return nil, err
	}
	return &Result{
		Root:         root,
		Frontier0:    count,
		Claimed:      run.Visited,
		Levels:       run.Levels,
		Iterations:   len(run.Levels),
		Converged:    converged,
		Time:         run.Time,
		ExaminedPush: run.ExaminedTD,
		ExaminedPull: run.ExaminedBU,
		ExaminedNVM:  run.ExaminedNVM,
		Switches:     run.Switches,
		Resilience:   run.Resilience,
		Cache:        run.Cache,
		Layers:       run.Layers,
	}, nil
}

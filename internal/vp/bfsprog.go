package vp

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
)

// BFS is breadth-first search as a vertex program. It reproduces
// bfs.Runner's claim discipline exactly — the visited bitmap is frozen
// during a push level (claims become visited in Activate, at gather time),
// the parent is a min-CAS on the tree entry, and a pull level claims the
// first frontier neighbor in scan order — so the parent tree is
// bit-identical to the BFS runner's: a pure function of the graph and the
// root, independent of worker count, queue depth, and I/O completion
// order. That equivalence is the framework's correctness anchor.
type BFS struct {
	n       int64
	tree    []int64
	visited *bitmap.Atomic
	scratch []pullParent
}

// pullParent is one worker's pull accumulator, padded against false
// sharing.
type pullParent struct {
	parent int64
	_pad   [7]int64
}

// NewBFS returns an unsized BFS program; NewEngine sizes it.
func NewBFS() *BFS { return &BFS{} }

// Tree returns the parent array (-1 for unreached vertices). It aliases
// program state and is valid until the next Run.
func (b *BFS) Tree() []int64 { return b.tree }

// Name implements Program.
func (b *BFS) Name() string { return "bfs" }

// Caps implements Program: both kernel directions.
func (b *BFS) Caps() Caps { return CapPush | CapPull }

// Monotone implements Program: a claimed vertex never re-enters the
// frontier, so degraded rescues seed partial claims.
func (b *BFS) Monotone() bool { return true }

// Setup implements Program.
func (b *BFS) Setup(n int64, workers int) {
	b.n = n
	b.tree = make([]int64, n)
	b.visited = bitmap.NewAtomic(int(n))
	b.scratch = make([]pullParent, workers)
}

// Reset implements Program.
func (b *BFS) Reset(root int64) error {
	if root < 0 || root >= b.n {
		return fmt.Errorf("vp: bfs root %d outside [0,%d)", root, b.n)
	}
	for i := range b.tree {
		b.tree[i] = -1
	}
	b.visited.Reset()
	b.tree[root] = root
	b.visited.Set(int(root))
	return nil
}

// InitialFrontier implements Program.
func (b *BFS) InitialFrontier(root int64, emit func(v int64)) { emit(root) }

// Hint implements Program: BFS defers entirely to the alpha/beta rule.
func (b *BFS) Hint(level int, frontier int64) Hint { return HintAuto }

// PushEdge implements Program: competing frontier parents of an unvisited
// vertex race in a min-CAS, so the survivor is the minimum.
func (b *BFS) PushEdge(w int, src, dst int64) bool {
	if b.visited.Test(int(dst)) {
		return false
	}
	bfs.MinParent(&b.tree[dst], src)
	return true
}

// PullCandidate implements Program: unvisited vertices gather.
func (b *BFS) PullCandidate(v int64) bool { return !b.visited.Test(int(v)) }

// BeginPull implements Program.
func (b *BFS) BeginPull(w int, v int64) { b.scratch[w].parent = -1 }

// PullEdge implements Program: claim the first frontier neighbor in scan
// order and terminate the scan.
func (b *BFS) PullEdge(w int, v, nb int64, inFrontier bool) bool {
	if inFrontier {
		b.scratch[w].parent = nb
		return false
	}
	return true
}

// EndPull implements Program: pull claims become visited immediately (the
// pull kernel's writes are worker-exclusive).
func (b *BFS) EndPull(w int, v int64) bool {
	if p := b.scratch[w].parent; p >= 0 {
		b.tree[v] = p
		b.visited.Set(int(v))
		return true
	}
	return false
}

// Activate implements Program: push claims become visited at gather time,
// preserving the frozen-bitmap determinism of the push level.
func (b *BFS) Activate(v int64) { b.visited.Set(int(v)) }

// EndLevel implements Program.
func (b *BFS) EndLevel(level int) {}

// Converged implements Program: BFS terminates when the frontier drains.
func (b *BFS) Converged() bool { return false }

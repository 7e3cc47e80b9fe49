package bfs

import (
	"fmt"
	"math"
	"slices"

	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// This file implements fault-tolerant incremental BFS repair: instead of
// rebuilding a parent tree from scratch after a batch of dynamic-graph
// updates, RepairTree adjusts the existing tree by processing only the
// affected region. The repaired tree is bit-identical to what a fresh
// top-down rebuild over the updated graph produces, because both resolve
// every vertex's parent to the canonical minimum — in top-down BFS every
// depth-(d-1) neighbor of v races minParent for v, so the fresh tree's
// parent of v is exactly min{u in N(v) : depth(u) = depth(v)-1}.

// EdgeUpdate is one undirected edge mutation applied to the graph a tree
// was computed over. A deletion removes the edge entirely (every stored
// copy of a duplicated edge), matching dyn.Graph's overlay semantics.
type EdgeUpdate struct {
	U, V int64
	Del  bool
}

// TreeState is a repairable BFS tree snapshot: the canonical min-parent
// tree of Root (Parent[Root] = Root, unreachable vertices -1), as
// produced by a ModeTopDownOnly run or a previous repair. Between repairs
// Parent changes only through RepairTree: the depths the repair keeps are
// those of the tree it left behind.
type TreeState struct {
	Root   int64
	Parent []int64

	rep *repairState
}

// NewTreeState snapshots a parent tree into a repairable state (the
// slice is cloned; Result.Tree aliases the runner's scratch).
func NewTreeState(root int64, parent []int64) *TreeState {
	return &TreeState{Root: root, Parent: append([]int64(nil), parent...)}
}

// RepairStats counts the work one RepairTree call did — the incremental
// cost the UpdateSweep experiment compares against a full rebuild.
type RepairStats struct {
	// Orphaned counts vertices whose root path lost a tree edge and had
	// to be re-settled.
	Orphaned int64
	// Relaxed counts depth relaxations pushed through the bucket queue.
	Relaxed int64
	// ParentsRecomputed counts canonical parent recomputations.
	ParentsRecomputed int64
	// EdgesScanned counts neighbor entries examined (the repair's edge
	// work; device time for NVM-resident entries lands on the clock).
	EdgesScanned int64
}

// DepthsFromTree derives per-vertex depths from a parent tree by
// memoized root-path walking: depth[root] = 0, unreachable = -1.
func DepthsFromTree(root int64, parent []int64) ([]int64, error) {
	n := len(parent)
	const unknown = int64(-2)
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = unknown
	}
	if root < 0 || root >= int64(n) {
		return nil, fmt.Errorf("bfs: root %d outside [0,%d)", root, n)
	}
	depth[root] = 0
	var path []int64
	for v := 0; v < n; v++ {
		if depth[v] != unknown {
			continue
		}
		path = path[:0]
		u := int64(v)
		for depth[u] == unknown {
			p := parent[u]
			if p < 0 {
				depth[u] = -1
				break
			}
			if p == u || len(path) > n {
				return nil, fmt.Errorf("bfs: parent cycle through vertex %d", u)
			}
			path = append(path, u)
			u = p
		}
		base := depth[u]
		for i, w := range path {
			if base < 0 {
				depth[w] = -1
			} else {
				depth[w] = base + int64(len(path)-i)
			}
		}
	}
	return depth, nil
}

// unreached is the repair's depth of an unreachable vertex: larger than
// any depth, with room to add one.
const unreached = math.MaxInt64 / 2

// repairState is what RepairTree keeps in a TreeState between calls: the
// tree's depths, which every successful repair leaves exact, and scratch
// reused by every repair, so a repair's host cost follows the region it
// touches and not |V|. The one O(|V|) step left is the children index of a
// repair that orphans a subtree.
type repairState struct {
	// depth is the depth of every vertex in tree (unreached when it has no
	// root path), valid while st.Root == root and st.Parent is tree.
	depth []int64
	root  int64
	tree  []int64

	// mark stamps a vertex with the current epoch: the orphan set in phase 1,
	// the recompute set in phase 3.
	mark  []uint32
	epoch uint32

	last                           map[[2]int64]int
	canon                          []EdgeUpdate
	orphanRoots, stack, orphanList []int64
	// childStart / childList are the children index, a counting sort of
	// the tree by parent: p's children are childList[childStart[p]:
	// childStart[p+1]], ascending.
	childStart, childList []int64
	// buckets is the unit-weight Dijkstra's queue, buckets[d] the vertices
	// pushed at depth d.
	buckets [][]int64
	changed []int64
	order   []int64
	// nbs receives one scanned adjacency through collectFn, which is built
	// once: a callback created per scan escapes into the scanner.
	nbs       []int64
	collectFn func(nb int64) bool
	stats     RepairStats
}

func newRepairState() *repairState {
	r := &repairState{last: make(map[[2]int64]int)}
	r.collectFn = func(nb int64) bool {
		r.nbs = append(r.nbs, nb)
		return true
	}
	return r
}

// push queues v at depth d, growing the queue into the inner slices earlier
// repairs left behind.
func (r *repairState) push(v, d int64) {
	for int64(len(r.buckets)) <= d {
		if len(r.buckets) < cap(r.buckets) {
			r.buckets = r.buckets[:len(r.buckets)+1]
		} else {
			r.buckets = append(r.buckets, nil)
		}
	}
	r.buckets[d] = append(r.buckets[d], v)
	r.stats.Relaxed++
}

// nextEpoch starts a new mark set.
func (r *repairState) nextEpoch() {
	r.epoch++
	if r.epoch == 0 {
		clear(r.mark)
		r.epoch = 1
	}
}

// markOnce marks v in the current set, listing it in order the first time.
func (r *repairState) markOnce(v int64) {
	if r.mark[v] != r.epoch {
		r.mark[v] = r.epoch
		r.order = append(r.order, v)
	}
}

// depths readies the depth array for st: kept from the last repair when st
// still holds that repair's tree, derived from Parent otherwise.
func (r *repairState) depths(st *TreeState) error {
	n := len(st.Parent)
	if r.depth != nil && r.root == st.Root && len(r.tree) == n && (n == 0 || &r.tree[0] == &st.Parent[0]) {
		return nil
	}
	depth, err := DepthsFromTree(st.Root, st.Parent)
	if err != nil {
		return err
	}
	for v := range depth {
		if depth[v] < 0 {
			depth[v] = unreached
		}
	}
	r.depth, r.root, r.tree = depth, st.Root, st.Parent
	if len(r.mark) != n {
		r.mark, r.epoch = make([]uint32, n), 0
	}
	return nil
}

// buildChildren indexes the tree's children by parent.
func (r *repairState) buildChildren(parent []int64) {
	n := len(parent)
	start := slices.Grow(r.childStart[:0], n+1)[:n+1]
	clear(start)
	for v, p := range parent {
		if p >= 0 && p != int64(v) {
			start[p+1]++
		}
	}
	for p := 1; p <= n; p++ {
		start[p] += start[p-1]
	}
	list := slices.Grow(r.childList[:0], int(start[n]))[:start[n]]
	// Scatter in vertex order, so each child list is ascending; start[p]
	// serves as p's cursor and ends at p's end, which is p+1's start.
	for v, p := range parent {
		if p >= 0 && p != int64(v) {
			list[start[p]] = int64(v)
			start[p]++
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	r.childStart, r.childList = start, list
}

// neighbors scans v's whole merged adjacency, counting the entries.
func (r *repairState) neighbors(sc BackwardScan, part *numa.Partition, v int64) ([]int64, error) {
	r.nbs = r.nbs[:0]
	dram, nvmE, err := sc.Scan(part.NodeOf(int(v)), v, r.collectFn)
	r.stats.EdgesScanned += dram + nvmE
	return r.nbs, err
}

// RepairTree incrementally repairs st in place so it matches a fresh
// canonical top-down BFS over the *updated* graph, which bwd must
// already reflect (e.g. a HybridBackwardAccess whose overlay holds the
// updates). Device time for adjacency reads is charged to clock.
//
// The repair runs in three phases:
//
//  1. Orphan closure: subtrees hanging off a deleted tree edge lose
//     their depths (deletions of non-tree edges cannot change any
//     distance — every tree path survives them).
//  2. Bounded relaxation: a unit-weight Dijkstra over a bucket queue,
//     seeded by insertion endpoints and by the orphan region's boundary
//     scans, settles every affected vertex at its new depth.
//  3. Canonical parent recomputation for every vertex whose depth
//     changed or that touches an updated edge: parent = the minimum
//     neighbor one level up, the same minimum top-down claiming yields.
//
// The depths phase 2 settles are kept in st for the next call; a repair
// that fails drops them, and the next call derives them from Parent again.
func RepairTree(st *TreeState, updates []EdgeUpdate, bwd BackwardAccess, part *numa.Partition, clock *vtime.Clock) (RepairStats, error) {
	if st.rep == nil {
		st.rep = newRepairState()
	}
	r := st.rep
	r.stats = RepairStats{}
	if err := r.depths(st); err != nil {
		return r.stats, err
	}
	if err := r.repair(st, updates, bwd.NewScanner(clock), part); err != nil {
		r.depth = nil
		return r.stats, err
	}
	return r.stats, nil
}

func (r *repairState) repair(st *TreeState, updates []EdgeUpdate, sc BackwardScan, part *numa.Partition) error {
	n := int64(len(st.Parent))
	depth := r.depth

	// Canonicalize to the batch's net effect: for each unordered pair only
	// the last update decides whether the edge ended up present. Without
	// this, an insert that a later delete revokes would seed phase 2 with
	// a depth the final graph does not support.
	valid := func(v int64) bool { return v >= 0 && v < n }
	clear(r.last)
	for i, up := range updates {
		if !valid(up.U) || !valid(up.V) || up.U == up.V {
			continue
		}
		a, b := up.U, up.V
		if a > b {
			a, b = b, a
		}
		r.last[[2]int64{a, b}] = i
	}
	r.canon = r.canon[:0]
	for i, up := range updates {
		a, b := up.U, up.V
		if a > b {
			a, b = b, a
		}
		if j, ok := r.last[[2]int64{a, b}]; ok && j == i {
			r.canon = append(r.canon, up)
		}
	}
	updates = r.canon

	// Phase 1: orphan the subtrees whose parent link was deleted.
	r.orphanRoots = r.orphanRoots[:0]
	for _, up := range updates {
		if !up.Del {
			continue
		}
		if st.Parent[up.V] == up.U && up.V != st.Root {
			r.orphanRoots = append(r.orphanRoots, up.V)
		}
		if st.Parent[up.U] == up.V && up.U != st.Root {
			r.orphanRoots = append(r.orphanRoots, up.U)
		}
	}
	r.orphanList = r.orphanList[:0]
	if len(r.orphanRoots) > 0 {
		r.buildChildren(st.Parent)
		r.nextEpoch()
		stack := append(r.stack[:0], r.orphanRoots...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r.mark[v] == r.epoch {
				continue
			}
			r.mark[v] = r.epoch
			r.orphanList = append(r.orphanList, v)
			depth[v] = unreached
			r.stats.Orphaned++
			stack = append(stack, r.childList[r.childStart[v]:r.childStart[v+1]]...)
		}
		r.stack = stack
	}

	// Phase 2: settle the affected region with a unit-weight Dijkstra.
	all := r.buckets[:cap(r.buckets)]
	for i := range all {
		all[i] = all[i][:0]
	}
	r.buckets = all[:0]
	for _, up := range updates {
		if up.Del {
			continue
		}
		if depth[up.U]+1 < depth[up.V] {
			r.push(up.V, depth[up.U]+1)
		}
		if depth[up.V]+1 < depth[up.U] {
			r.push(up.U, depth[up.V]+1)
		}
	}
	for _, v := range r.orphanList {
		nbs, err := r.neighbors(sc, part, v)
		if err != nil {
			return err
		}
		best := int64(unreached)
		for _, nb := range nbs {
			best = min(best, depth[nb])
		}
		if best+1 < depth[v] {
			r.push(v, best+1)
		}
	}
	r.changed = r.changed[:0] // settle order: deterministic scan order below
	for d := int64(0); d < int64(len(r.buckets)); d++ {
		if d >= n {
			break
		}
		for i := 0; i < len(r.buckets[d]); i++ {
			v := r.buckets[d][i]
			if depth[v] <= d {
				continue
			}
			depth[v] = d
			r.changed = append(r.changed, v)
			nbs, err := r.neighbors(sc, part, v)
			if err != nil {
				return err
			}
			for _, nb := range nbs {
				if depth[nb] > d+1 {
					r.push(nb, d+1)
				}
			}
		}
	}

	// Phase 3: canonical parents for everything the updates could have
	// moved — re-settled vertices, still-orphaned (now unreachable)
	// vertices, every update endpoint (an inserted edge can lower the
	// minimum parent without changing any depth), and every neighbor of a
	// re-settled vertex (a neighbor dropping to depth(v)-1 can become
	// v's new minimum parent while v's own depth stays put).
	r.nextEpoch()
	r.order = r.order[:0]
	for _, v := range r.changed {
		r.markOnce(v)
		nbs, err := r.neighbors(sc, part, v)
		if err != nil {
			return err
		}
		for _, nb := range nbs {
			r.markOnce(nb)
		}
	}
	for _, v := range r.orphanList {
		r.markOnce(v)
	}
	for _, up := range updates {
		r.markOnce(up.U)
		r.markOnce(up.V)
	}
	// Scan in vertex order: the recompute scans charge the virtual clock
	// and device queues, so any other order would leak into every timing
	// downstream of a repair.
	slices.Sort(r.order)
	for _, v := range r.order {
		if v == st.Root {
			continue
		}
		if depth[v] >= unreached {
			st.Parent[v] = -1
			r.stats.ParentsRecomputed++
			continue
		}
		nbs, err := r.neighbors(sc, part, v)
		if err != nil {
			return err
		}
		want := depth[v] - 1
		best := int64(-1)
		for _, nb := range nbs {
			if depth[nb] == want && (best < 0 || nb < best) {
				best = nb
			}
		}
		if best < 0 {
			return fmt.Errorf("bfs: repair inconsistency: vertex %d at depth %d has no depth-%d neighbor", v, depth[v], want)
		}
		st.Parent[v] = best
		r.stats.ParentsRecomputed++
	}
	return nil
}

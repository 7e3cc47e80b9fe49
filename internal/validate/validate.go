// Package validate implements Step 4 of the Graph500 benchmark: verifying
// a BFS tree against the original edge list.
//
// The checks follow the benchmark specification:
//
//  1. the parent array encodes a tree rooted at the search key (parent
//     chains terminate at the root, no cycles);
//  2. every tree edge connects vertices whose BFS levels differ by one;
//  3. every edge of the input list connects vertices whose levels differ
//     by at most one, or joins two unvisited vertices;
//  4. every visited vertex is reachable from the root (implied by the
//     level computation in check 1);
//  5. the tree spans exactly the component containing the root: an input
//     edge never joins a visited and an unvisited vertex.
//
// As a by-product, Run counts the input edges with both endpoints in the
// traversed component — the edge count the TEPS metric divides by.
package validate

import (
	"fmt"

	"semibfs/internal/edgelist"
)

// Report is the outcome of validating one BFS tree.
type Report struct {
	Root    int64
	Visited int64
	// TraversedEdges is the number of input edge tuples (self-loops
	// excluded) with both endpoints in the traversed component; the
	// Graph500 TEPS denominator's numerator.
	TraversedEdges int64
	// MaxLevel is the eccentricity of the root within its component.
	MaxLevel int64
}

const unreached = int64(-1)

// Levels computes each vertex's BFS level from a parent array by chasing
// parent pointers with memoization. It returns an error if a chain does
// not terminate at root or contains a cycle.
func Levels(tree []int64, root int64) ([]int64, error) {
	n := int64(len(tree))
	if root < 0 || root >= n {
		return nil, fmt.Errorf("validate: root %d outside [0,%d)", root, n)
	}
	if tree[root] != root {
		return nil, fmt.Errorf("validate: tree[root=%d] = %d, want self", root, tree[root])
	}
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = unreached
	}
	levels[root] = 0
	stack := make([]int64, 0, 64)
	for v := int64(0); v < n; v++ {
		if tree[v] == -1 || levels[v] != unreached {
			continue
		}
		// Chase parents until a vertex with a known level.
		u := v
		stack = stack[:0]
		for levels[u] == unreached {
			p := tree[u]
			if p < 0 || p >= n {
				return nil, fmt.Errorf("validate: tree[%d] = %d out of range", u, p)
			}
			if p == u {
				return nil, fmt.Errorf("validate: vertex %d is its own parent but not the root", u)
			}
			stack = append(stack, u)
			if int64(len(stack)) > n {
				return nil, fmt.Errorf("validate: parent chain from %d exceeds %d hops (cycle)", v, n)
			}
			u = p
		}
		base := levels[u]
		for i := len(stack) - 1; i >= 0; i-- {
			base++
			levels[stack[i]] = base
		}
	}
	return levels, nil
}

// Run validates tree (a parent array with -1 for unvisited vertices)
// against the edges streamed from src. It returns a Report on success and
// a descriptive error on the first violated rule.
func Run(tree []int64, root int64, src edgelist.Source) (*Report, error) {
	levels, err := Levels(tree, root)
	if err != nil {
		return nil, err
	}
	rep := &Report{Root: root}
	for v, l := range levels {
		if l == unreached {
			continue
		}
		rep.Visited++
		if l > rep.MaxLevel {
			rep.MaxLevel = l
		}
		// Rule 2: a tree edge spans exactly one level.
		p := tree[v]
		if int64(v) != root && levels[p] != l-1 {
			return nil, fmt.Errorf(
				"validate: tree edge %d(level %d) -> parent %d(level %d) does not span one level",
				v, l, p, levels[p])
		}
	}
	err = src.ForEach(func(e edgelist.Edge) error {
		if e.U == e.V {
			return nil
		}
		lu, lv := levels[e.U], levels[e.V]
		switch {
		case lu == unreached && lv == unreached:
			return nil
		case lu == unreached || lv == unreached:
			// Rule 5: the component is fully spanned.
			return fmt.Errorf(
				"validate: edge (%d,%d) joins visited and unvisited vertices", e.U, e.V)
		}
		// Rule 3: input edges span at most one level.
		d := lu - lv
		if d < -1 || d > 1 {
			return fmt.Errorf(
				"validate: edge (%d,%d) spans %d levels (%d vs %d)", e.U, e.V, d, lu, lv)
		}
		rep.TraversedEdges++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// TraversedEdges is the TEPS numerator of a tree that was not streamed
// through Run: the input edges inside the traversed component, counted as
// half the degree sum of the visited vertices. Rule 5 (no edge joins a
// visited and an unvisited vertex) makes this exactly Run's streamed count.
func TraversedEdges(tree []int64, degree func(int64) int64) int64 {
	var sum int64
	for v, parent := range tree {
		if parent != unreached {
			sum += degree(int64(v))
		}
	}
	return sum / 2
}

package vp

import (
	"fmt"
	"strings"
)

// Algorithm names one of the package's vertex programs. A program is what a
// run executes, so the choice belongs to the run, not to the storage the run
// reads; the zero value is AlgoBFS.
type Algorithm int

const (
	// AlgoBFS is single-source breadth-first search (BFS); its parent trees
	// are bit-identical to bfs.Runner's.
	AlgoBFS Algorithm = iota
	// AlgoComponents is connected components by min-label propagation
	// (Components).
	AlgoComponents
	// AlgoPageRank is damped PageRank by dense pull sweeps (PageRank).
	AlgoPageRank
)

// String returns the CLI spelling of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoBFS:
		return "bfs"
	case AlgoComponents:
		return "cc"
	case AlgoPageRank:
		return "pagerank"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a CLI spelling to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "bfs":
		return AlgoBFS, nil
	case "cc", "components":
		return AlgoComponents, nil
	case "pagerank", "pr":
		return AlgoPageRank, nil
	default:
		return AlgoBFS, fmt.Errorf("vp: unknown algorithm %q (want bfs, cc, or pagerank)", s)
	}
}

// Algorithms returns the supported algorithms in report order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoBFS, AlgoComponents, AlgoPageRank}
}

// NewProgram instantiates algorithm a. deg is the graph's per-vertex degree
// array (the symmetric degree both CSR directions share); only PageRank
// reads it.
func NewProgram(a Algorithm, deg []int64, pr PageRankOptions) (Program, error) {
	switch a {
	case AlgoBFS:
		return NewBFS(), nil
	case AlgoComponents:
		return NewComponents(), nil
	case AlgoPageRank:
		return NewPageRank(deg, pr), nil
	default:
		return nil, fmt.Errorf("vp: unknown algorithm %v", a)
	}
}

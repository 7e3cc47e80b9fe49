package vp_test

import (
	"strings"
	"testing"

	"semibfs/internal/vp"
)

// TestAlgorithmSpellings checks the CLI spellings round-trip, the aliases
// parse, and NewProgram builds the program each algorithm names.
func TestAlgorithmSpellings(t *testing.T) {
	for _, a := range vp.Algorithms() {
		got, err := vp.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
		prog, err := vp.NewProgram(a, make([]int64, 4), vp.PageRankOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if prog.Name() != a.String() {
			t.Fatalf("NewProgram(%v) built %q", a, prog.Name())
		}
	}
	for in, want := range map[string]vp.Algorithm{"": vp.AlgoBFS, " PR ": vp.AlgoPageRank, "components": vp.AlgoComponents} {
		if got, err := vp.ParseAlgorithm(in); err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := vp.ParseAlgorithm("sssp"); err == nil || !strings.Contains(err.Error(), "want bfs, cc, or pagerank") {
		t.Fatalf("unknown spelling: %v", err)
	}
	if _, err := vp.NewProgram(vp.Algorithm(9), nil, vp.PageRankOptions{}); err == nil {
		t.Fatal("NewProgram accepted an unknown algorithm")
	}
}

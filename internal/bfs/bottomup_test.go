package bfs

import (
	"testing"

	"semibfs/internal/numa"
)

// TestWordRangeOfNodeOwnership checks the word-ownership invariant the
// bottom-up kernel relies on: across all NUMA nodes and their workers,
// every 64-bit bitmap word is visited by exactly one worker, so every
// vertex is scanned exactly once and next/visited word writes never race.
// The partitions are chosen so node boundaries straddle words (sizes not
// multiples of 64, more nodes than words, single-vertex nodes).
func TestWordRangeOfNodeOwnership(t *testing.T) {
	cases := []struct {
		nodes, cpn, n int
	}{
		{4, 12, 1 << 10},  // boundaries word-aligned (n divisible evenly)
		{4, 12, 1000},     // 250 vertices/node: every boundary mid-word
		{3, 2, 190},       // 64,63,63: second boundary lands mid-word
		{4, 3, 130},       // ~2 words total across 4 nodes
		{7, 1, 65},        // more nodes than words; several own no word
		{2, 5, 64},        // exactly one word, second node empty range
		{5, 2, 1},         // single vertex
		{4, 12, 64*5 + 1}, // trailing word holds one vertex
	}
	for _, tc := range cases {
		topo := numa.Topology{Nodes: tc.nodes, CoresPerNode: tc.cpn}
		part := numa.NewPartition(topo, tc.n)

		words := (tc.n + 63) / 64
		wordOwner := make([]int, words)
		for i := range wordOwner {
			wordOwner[i] = -1
		}
		scanned := make([]int, tc.n)

		for k := 0; k < tc.nodes; k++ {
			lo, hi := WordRangeOf(part, k)
			if lo < 0 || hi > words {
				t.Fatalf("%+v: node %d word range [%d,%d) outside [0,%d)", tc, k, lo, hi, words)
			}
			// Replay the kernel's striding: worker j of node k takes words
			// lo+j, lo+j+cpn, ... and scans every vertex bit in each.
			for j := 0; j < tc.cpn; j++ {
				for wi := lo + j; wi < hi; wi += tc.cpn {
					if prev := wordOwner[wi]; prev >= 0 {
						t.Fatalf("%+v: word %d visited by two workers (nodes %d and %d)",
							tc, wi, prev, k)
					}
					wordOwner[wi] = k
					base := wi * 64
					end := base + 64
					if end > tc.n {
						end = tc.n
					}
					for v := base; v < end; v++ {
						scanned[v]++
					}
				}
			}
		}
		for wi, owner := range wordOwner {
			if owner < 0 {
				t.Fatalf("%+v: word %d owned by no node", tc, wi)
			}
			// The owner must be the node of the word's base bit (or, for a
			// word whose base bit lies past a node's start because lo was
			// rounded up, the node that inherited it — the invariant the
			// comment promises is base-bit ownership).
			if want := part.NodeOf(wi * 64); owner != want {
				t.Fatalf("%+v: word %d owned by node %d, base bit owned by node %d",
					tc, wi, owner, want)
			}
		}
		for v, c := range scanned {
			if c != 1 {
				t.Fatalf("%+v: vertex %d scanned %d times, want exactly 1", tc, v, c)
			}
		}
	}
}

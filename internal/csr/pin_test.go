package csr

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
)

// The layout pins: every Index and Value array BuildForward and
// BuildBackward produce on one seeded SCALE-12 Kronecker instance (which
// has duplicate edges and self-loops) must hash to these constants. The
// offloaded bytes, the compressed streams and every virtual-time number
// are downstream of these arrays. They were recorded before the adjacency
// sorts were replaced; a change to the builders' host path must leave
// every constant untouched.

func int64sHash(vals []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// arrays is one node's {Index hash, Value hash}.
type arrays [2]uint64

func TestLayoutPins(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 12, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	loops, seen, dups := 0, map[edgelist.Edge]bool{}, 0
	for _, e := range list.Edges {
		if e.U == e.V {
			loops++
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if seen[e] {
			dups++
		}
		seen[e] = true
	}
	if loops == 0 || dups == 0 {
		t.Fatalf("instance has %d self-loops and %d duplicate edges; the pins need both", loops, dups)
	}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(numa.DefaultTopology, int(list.NumVertices))

	check := func(t *testing.T, got, want []arrays) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d nodes, pinned %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("node %d {Index, Value} = {%#016x, %#016x}, pinned {%#016x, %#016x}",
					k, got[k][0], got[k][1], want[k][0], want[k][1])
			}
		}
	}

	t.Run("forward", func(t *testing.T) {
		fg, err := BuildForward(src, part)
		if err != nil {
			t.Fatal(err)
		}
		var got []arrays
		for _, g := range fg.PerNode {
			got = append(got, arrays{int64sHash(g.Index), int64sHash(g.Value)})
		}
		check(t, got, []arrays{
			{0x1c18c054118ebddf, 0xd6d7f6436f0ff70e},
			{0xb214a68c90137259, 0x452436046161aa0a},
			{0x98f39cb7a9bfac4a, 0xf31263afce1644c9},
			{0xf09dfed4760bd957, 0xaf7cf8afcd510702},
		})
	})

	backward := map[SortMode][]arrays{
		SortNone: {
			{0xf8099132b187679a, 0x2994aa00cc07f25f},
			{0x85028c9f3a493066, 0x3f61dbb93584b5de},
			{0x2b949815bafcb897, 0x81f7cc3639eca1f5},
			{0x72b7cfaa6417d477, 0x61b4248d8494bcdf},
		},
		SortByID: {
			{0xf8099132b187679a, 0x67df6e79af4a3203},
			{0x85028c9f3a493066, 0xe1cd3d7c06e154e2},
			{0x2b949815bafcb897, 0xa6192ff1f9220861},
			{0x72b7cfaa6417d477, 0x6260edf7e05e9473},
		},
		SortByDegreeDesc: {
			{0xf8099132b187679a, 0x8b2abbaff3d7e3b3},
			{0x85028c9f3a493066, 0x499c3ea9cba2e65e},
			{0x2b949815bafcb897, 0x4c878d64668232f1},
			{0x72b7cfaa6417d477, 0x328a0495c0c1cd7f},
		},
	}
	for _, mode := range []SortMode{SortNone, SortByID, SortByDegreeDesc} {
		t.Run("backward/"+mode.String(), func(t *testing.T) {
			bg, err := BuildBackward(src, part, mode)
			if err != nil {
				t.Fatal(err)
			}
			var got []arrays
			for _, g := range bg.PerNode {
				got = append(got, arrays{int64sHash(g.Index), int64sHash(g.Value)})
			}
			check(t, got, backward[mode])
		})
	}
}

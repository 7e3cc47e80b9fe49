package generator

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/edgelist"
)

// The edge-array pins: Generate must reproduce these exact edge lists, at
// any worker count, and Config.Edge must agree with it edge for edge. Every
// seeded graph, golden and sim-digest in the repository is downstream of
// these arrays. They were recorded before the generator's per-edge set-up
// was hoisted; a change to the generator's host path must leave every
// constant untouched.

func edgesHash(edges []edgelist.Edge) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(b[:8], uint64(e.U))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.V))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestEdgeArrayPins(t *testing.T) {
	type initiator struct{ a, b, c float64 }
	def, flat := initiator{}, initiator{0.45, 0.22, 0.22}
	pins := []struct {
		scale int
		seed  uint64
		init  initiator
		want  uint64
	}{
		{1, 1, def, 0xce86797fb5dd28c4},
		{1, 1, flat, 0x8c19f5ca91eb6ea4},
		{1, 12345, def, 0x5d50981136b10c65},
		{1, 12345, flat, 0x2c8e628939cb6765},
		{10, 1, def, 0xc226d0d4decfcf6a},
		{10, 1, flat, 0x15310f2eceae1e54},
		{10, 12345, def, 0xd5753f39f3811408},
		{10, 12345, flat, 0xbce85a071366e113},
		{14, 1, def, 0xf3b848d59501b8c6},
		{14, 1, flat, 0xa03307cf1a5bc265},
		{14, 12345, def, 0xe460da4b8ac9fab0},
		{14, 12345, flat, 0xb8f1a283e559edbc},
	}
	for _, p := range pins {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("scale%d/seed%d/A%.2f/workers%d", p.scale, p.seed, p.init.a, workers)
			t.Run(name, func(t *testing.T) {
				c := Config{Scale: p.scale, Seed: p.seed, A: p.init.a, B: p.init.b, C: p.init.c, Workers: workers}
				list, err := Generate(c)
				if err != nil {
					t.Fatal(err)
				}
				if got := edgesHash(list.Edges); got != p.want {
					t.Errorf("edge array hash = %#016x, pinned %#016x", got, p.want)
				}
				m := int64(len(list.Edges))
				sample := []int64{m - 1}
				for i := int64(0); i < m; i += 1 + m/257 {
					sample = append(sample, i)
				}
				for _, i := range sample {
					if got := c.Edge(i); got != list.Edges[i] {
						t.Fatalf("Edge(%d) = %v, Generate().Edges[%d] = %v", i, got, i, list.Edges[i])
					}
				}
			})
		}
	}
}

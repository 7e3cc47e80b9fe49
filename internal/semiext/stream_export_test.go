package semiext

import (
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/nvm"
)

// TestStreamIndexedNeighbors is the regression test for the exported
// glue the cluster layouts share: an (index, value) store pair written by
// WriteAdjacency must stream identically through the raw and compressed
// paths, including early exit.
func TestStreamIndexedNeighbors(t *testing.T) {
	adj := [][]int64{
		{},
		{0, 2, 5},
		{1},
		{1, 2, 4, 9, 10, 11},
	}
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	g := &csr.LocalGraph{Len: int64(len(adj)), Index: make([]int64, len(adj)+1)}
	for i, nbs := range adj {
		g.Value = append(g.Value, nbs...)
		g.Index[i+1] = int64(len(g.Value))
	}

	for _, compressed := range []bool{false, true} {
		idxStore := nvm.NewMemStore(dev, 0)
		valStore := nvm.NewMemStore(dev, 0)
		if _, _, err := WriteAdjacency(idxStore, valStore, nil, g, compressed); err != nil {
			t.Fatal(err)
		}

		var scratch []byte
		var ids []int64
		for v, want := range adj {
			var got []int64
			n, err := StreamIndexedNeighbors(idxStore, valStore, dev, nil, compressed,
				int64(v), int64(v), &scratch, &ids, 0, func(nbs []int64) (int, bool) {
					got = append(got, nbs...)
					return len(nbs), false
				})
			if err != nil {
				t.Fatalf("compressed=%v v=%d: %v", compressed, v, err)
			}
			if n != int64(len(want)) || len(got) != len(want) {
				t.Fatalf("compressed=%v v=%d: examined %d, got %v, want %v", compressed, v, n, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("compressed=%v v=%d: neighbor %d = %d, want %d", compressed, v, i, got[i], want[i])
				}
			}
		}
		// Early exit stops after the first neighbor and reports one examined.
		n, err := StreamIndexedNeighbors(idxStore, valStore, dev, nil, compressed,
			3, 3, &scratch, &ids, 0, func([]int64) (int, bool) { return 1, true })
		if err != nil || n != 1 {
			t.Fatalf("compressed=%v early exit: examined %d err %v, want 1/nil", compressed, n, err)
		}
	}
}

package semiext

import (
	"fmt"
	"slices"
	"testing"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// idleGraph is a SCALE-9 Kronecker graph cut to its first 300 vertices on
// two nodes: the last bitmap word is partial, the node boundary (vertex
// 150) falls inside a word, and 81 of the 300 vertices have no neighbor.
func idleGraph(tb testing.TB) *csr.BackwardGraph {
	tb.Helper()
	const n = 300
	full, err := generator.Generate(generator.Config{Scale: 9, EdgeFactor: 8, Seed: 21})
	if err != nil {
		tb.Fatal(err)
	}
	list := &edgelist.List{NumVertices: n}
	for _, e := range full.Edges {
		if e.U < n && e.V < n {
			list.Edges = append(list.Edges, e)
		}
	}
	bg, err := csr.BuildBackward(edgelist.ListSource{List: list},
		numa.NewPartition(numa.Topology{Nodes: 2, CoresPerNode: 2}, n), csr.SortByDegreeDesc)
	if err != nil {
		tb.Fatal(err)
	}
	return bg
}

// checkIdle holds every bit Idle returns for words lo to hi-1 against
// Prefix: set exactly when the vertex's prefix is empty and nothing follows
// it, and never past the last vertex. It also holds Prefix to the CSR: a
// clean vertex's prefix, widened, is bg's first min(keep, degree) neighbors
// (all of them at keep <= 0) and head is its first entry; a dirty vertex
// has head 0, no prefix and a rest.
func checkIdle(tb testing.TB, sc *BackwardScanner, bg *csr.BackwardGraph, keep int, lo, hi int, step string) {
	tb.Helper()
	part := bg.Part
	for wi := lo; wi < hi; wi++ {
		idle := sc.Idle(wi)
		for b := 0; b < 64; b++ {
			v := wi*64 + b
			want := false
			if v < part.N {
				head, nbs, rest := sc.Prefix(part.NodeOf(v), int64(v))
				want = len(nbs) == 0 && !rest
				checkPrefix(tb, sc, bg, keep, int64(v), head, nbs, rest, step)
			}
			if got := idle>>b&1 != 0; got != want {
				tb.Fatalf("%s: vertex %d idle %v, Prefix says %v", step, v, got, want)
			}
		}
	}
}

// checkPrefix holds one Prefix answer for v against bg (see checkIdle).
func checkPrefix(tb testing.TB, sc *BackwardScanner, bg *csr.BackwardGraph, keep int, v int64, head uint32, nbs []uint32, rest bool, step string) {
	tb.Helper()
	if sc.hb.overlay.isDirty(v) {
		if head != 0 || nbs != nil || !rest {
			tb.Fatalf("%s: dirty vertex %d: Prefix = (%d, %v, %v), want (0, nil, true)", step, v, head, nbs, rest)
		}
		return
	}
	stored := bg.Neighbors(v)
	if keep > 0 && len(stored) > keep {
		stored = stored[:keep]
	}
	if len(nbs) != len(stored) {
		tb.Fatalf("%s: vertex %d: %d prefix entries, want the CSR's first %d", step, v, len(nbs), len(stored))
	}
	for i, nb := range nbs {
		if int64(nb) != stored[i] {
			tb.Fatalf("%s: vertex %d: prefix entry %d is %d, the CSR's is %d", step, v, i, nb, stored[i])
		}
	}
	if len(nbs) > 0 && head != nbs[0] {
		tb.Fatalf("%s: vertex %d: head %d, prefix starts at %d", step, v, head, nbs[0])
	}
}

// idleEdits applies ops to an overlay over bg, four bytes an edit, and
// checks Idle against Prefix after each: bytes 0-1 pick a vertex, byte 2 a
// neighbor, byte 3 the edit — insert a neighbor absent from the merged
// view, delete one stored neighbor, delete every stored neighbor, or (by
// byte 2's parity) clear the overlay or detach and reattach it. An edit of
// one vertex is checked on its word, the others and the end on every word.
func idleEdits(tb testing.TB, bg *csr.BackwardGraph, keep int, compress bool, ops []byte) {
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	hb, err := OffloadBackward(bg, memFactory(dev), nil, BackwardOptions{KeepEdges: keep, Compress: compress})
	if err != nil {
		tb.Fatal(err)
	}
	defer hb.Close()
	part := bg.Part
	words := (part.N + 63) / 64
	sc := NewBackwardScanner(hb, vtime.NewClock(0))
	checkIdle(tb, sc, bg, keep, 0, words, "no overlay")
	o := NewDeltaOverlay()
	hb.SetOverlay(o)
	checkIdle(tb, sc, bg, keep, 0, words, "empty overlay")
	n := int64(part.N)
	for i := 0; i+4 <= len(ops) && i < 1024; i += 4 {
		v := (int64(ops[i]) | int64(ops[i+1])<<8) % n
		x := int64(ops[i+2])
		stored := bg.Neighbors(v)
		lo, hi := int(v/64), int(v/64)+1
		switch ops[i+3] % 4 {
		case 0:
			if u := (v + 1 + x) % n; !slices.Contains(stored, u) || o.IsDeleted(v, u) {
				o.Insert(v, u)
			}
		case 1:
			if len(stored) > 0 {
				if nb := stored[x%int64(len(stored))]; !o.IsDeleted(v, nb) {
					o.Delete(v, nb)
				}
			}
		case 2:
			for _, nb := range stored {
				if !o.IsDeleted(v, nb) {
					o.Delete(v, nb)
				}
			}
		case 3:
			lo, hi = 0, words
			switch {
			case x%2 == 0:
				o.Clear()
			case hb.Overlay() == nil:
				hb.SetOverlay(o)
			default:
				hb.SetOverlay(nil)
			}
		}
		checkIdle(tb, sc, bg, keep, lo, hi, fmt.Sprintf("edit %d", i/4))
	}
	checkIdle(tb, sc, bg, keep, 0, words, "after the edits")
}

// TestIdleMatchesPrefix: for every DRAM edge limit the engines use — the
// whole graph in DRAM, the paper's one-neighbor prefix and a wider one —
// raw and compressed, Idle agrees with Prefix on every vertex, and Prefix's
// 32-bit prefix and head agree with the CSR, without an overlay, with an
// empty one, with a dirty bitmap shorter than the vertex range, after an
// isolated vertex gains an edge and a vertex loses every stored edge, after
// Clear, and along a seeded run of random edits.
func TestIdleMatchesPrefix(t *testing.T) {
	bg := idleGraph(t)
	var isolated, hub int64 = -1, -1
	for v := int64(0); v < int64(bg.Part.N); v++ {
		switch d := bg.Degree(v); {
		case d == 0 && isolated < 0:
			isolated = v
		case d > 4 && hub < 0:
			hub = v
		}
	}
	if isolated < 0 || isolated >= 64 || hub < 0 || hub >= 64 {
		t.Fatalf("want an isolated vertex and one of degree > 4 in word 0, have %d and %d", isolated, hub)
	}
	// Both edits land in word 0, so the dirty bitmap stays one word long
	// while the graph spans five.
	o := NewDeltaOverlay()
	o.Insert(isolated, hub)
	if len(o.dirty) != 1 {
		t.Fatalf("one edit in word 0 grew the dirty bitmap to %d words", len(o.dirty))
	}
	var short []byte
	edit := func(v int64, x byte, op byte) { short = append(short, byte(v), byte(v>>8), x, op) }
	edit(isolated, 0, 0)
	edit(hub, 0, 2)
	var random []byte
	s := uint64(0x1d1e)
	for range 1024 {
		s = s*6364136223846793005 + 1442695040888963407
		random = append(random, byte(s>>56))
	}
	for _, keep := range []int{0, 1, 4} {
		for _, compress := range []bool{false, true} {
			if keep == 0 && compress {
				continue // no tails to compress
			}
			t.Run(fmt.Sprintf("keep=%d/compress=%v", keep, compress), func(t *testing.T) {
				idleEdits(t, bg, keep, compress, short)
				idleEdits(t, bg, keep, compress, append(short, random...))
			})
		}
	}
}

// FuzzIdleMatchesPrefix drives Idle against Prefix, and Prefix against the
// CSR, through arbitrary edit sequences at a fuzzed DRAM edge limit, raw and
// compressed.
func FuzzIdleMatchesPrefix(f *testing.F) {
	bg := idleGraph(f)
	f.Add(uint8(1), false, []byte{3, 0, 7, 0, 3, 0, 0, 2, 9, 0, 2, 3})
	f.Add(uint8(4), true, []byte{200, 0, 1, 1, 44, 1, 0, 2, 0, 0, 1, 3, 0, 0, 0, 3})
	f.Add(uint8(0), false, []byte{17, 0, 5, 0, 17, 0, 5, 1})
	f.Fuzz(func(t *testing.T, keep uint8, compress bool, ops []byte) {
		idleEdits(t, bg, int(keep%6), compress, ops)
	})
}

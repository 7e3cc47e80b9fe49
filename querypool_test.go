package semibfs

import (
	"testing"

	"semibfs/internal/validate"
)

func poolTestEdges(t *testing.T, scale int, seed uint64) *EdgeList {
	t.Helper()
	edges, err := GenerateKronecker(scale, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestQueryPoolServesStreamInBatches drives the pool with a query stream
// whose length does not divide the batch width and checks every result
// maps back to its own query: right ID, right root, a valid tree for that
// root, matching the single-source answer.
func TestQueryPoolServesStreamInBatches(t *testing.T) {
	edges := poolTestEdges(t, 9, 42)
	opts := Options{
		Placement: PlacePCIeFlash,
		NUMANodes: 2, CoresPerNode: 2,
		Alpha: 64, Beta: 640,
	}
	sys, err := NewSystem(edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pool, err := sys.NewQueryPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// 7 queries into 3-wide batches: 3 + 3 + 1, in submission order.
	var roots []int64
	for v := int64(0); v < edges.NumVertices() && len(roots) < 7; v++ {
		if sys.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	// Scramble arrival order.
	roots[0], roots[5] = roots[5], roots[0]
	roots[2], roots[6] = roots[6], roots[2]
	ids := make([]int, len(roots))
	for i, root := range roots {
		id, err := pool.Submit(root)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if pool.Pending() != len(roots) {
		t.Fatalf("pending %d, want %d", pool.Pending(), len(roots))
	}
	results, stats, err := pool.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Pending() != 0 {
		t.Fatalf("pending %d after flush", pool.Pending())
	}
	if len(results) != len(roots) {
		t.Fatalf("%d results for %d queries", len(results), len(roots))
	}
	if want := []int{3, 3, 1}; len(stats) != len(want) {
		t.Fatalf("%d batches, want %d", len(stats), len(want))
	} else {
		for i, b := range stats {
			if b.Size != want[i] {
				t.Fatalf("batch %d size %d, want %d", i, b.Size, want[i])
			}
			if b.Seconds <= 0 || b.AmortizedSeconds != b.Seconds/float64(b.Size) {
				t.Fatalf("batch %d: seconds %v, amortized %v x %d", i, b.Seconds, b.AmortizedSeconds, b.Size)
			}
			if b.TEPS <= 0 {
				t.Fatalf("batch %d: TEPS %v", i, b.TEPS)
			}
			if b.CacheHitRate != 0 {
				t.Fatalf("batch %d: cache hit rate %v without a cache", i, b.CacheHitRate)
			}
		}
	}
	for i, qr := range results {
		if qr.ID != ids[i] || qr.Root != roots[i] {
			t.Fatalf("result %d: query (%d,%d), want (%d,%d)", i, qr.ID, qr.Root, ids[i], roots[i])
		}
		if qr.Parents[qr.Root] != qr.Root {
			t.Fatalf("result %d: tree not rooted at %d", i, qr.Root)
		}
		if _, err := validate.Run(qr.Parents, qr.Root, sys.src); err != nil {
			t.Fatalf("result %d (root %d): %v", i, qr.Root, err)
		}
		single, err := sys.BFS(qr.Root)
		if err != nil {
			t.Fatal(err)
		}
		if single.Visited != qr.Visited || single.TraversedEdges != qr.TraversedEdges {
			t.Fatalf("result %d: visited/traversed (%d,%d), single-source (%d,%d)",
				i, qr.Visited, qr.TraversedEdges, single.Visited, single.TraversedEdges)
		}
	}
	// Second flush on an empty pool is a no-op.
	r2, s2, err := pool.Flush()
	if err != nil || r2 != nil || s2 != nil {
		t.Fatalf("empty flush: %v %v %v", r2, s2, err)
	}
	// The pool is reusable: batch numbering continues.
	if _, err := pool.Submit(roots[0]); err != nil {
		t.Fatal(err)
	}
	_, s3, err := pool.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(s3) != 1 || s3[0].Batch != 3 {
		t.Fatalf("continuation batch stats %+v, want batch index 3", s3)
	}
}

func TestQueryPoolOwnsItsSystem(t *testing.T) {
	edges := poolTestEdges(t, 8, 7)
	pool, err := NewQueryPool(edges, 4, Options{
		Placement: PlacePCIeFlash, NUMANodes: 2, CoresPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := int64(0)
	for pool.deg[root] == 0 {
		root++
	}
	results, stats, err := pool.Run([]int64{root, root + 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(stats) != 1 {
		t.Fatalf("results %d, stats %d", len(results), len(stats))
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryPoolRejectsBadInput(t *testing.T) {
	edges := poolTestEdges(t, 7, 3)
	sys, err := NewSystem(edges, Options{NUMANodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.NewQueryPool(0); err == nil {
		t.Error("zero-lane pool accepted")
	}
	if _, err := sys.NewQueryPool(65); err == nil {
		t.Error("65-lane pool accepted")
	}
	pool, err := sys.NewQueryPool(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(-1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := pool.Submit(edges.NumVertices()); err == nil {
		t.Error("out-of-range root accepted")
	}
}

// FuzzBatchPack fuzzes the pool's pure packing step: whatever the arrival
// order and whether or not the width divides the request count, no query
// may be lost, duplicated, reordered, or cross-wired into another batch
// slot, and no batch may exceed the width.
func FuzzBatchPack(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(3))
	f.Add([]byte{9}, uint8(64))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{5, 5, 5, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		lanes := int(width)%64 + 1
		queries := make([]Query, len(data))
		for i, b := range data {
			// Unique IDs in a scrambled, non-sequential order; roots may
			// repeat freely.
			queries[i] = Query{ID: int(b) | i<<8, Root: int64(b) % 17}
		}
		batches := packBatches(queries, lanes)
		wantBatches := (len(queries) + lanes - 1) / lanes
		if len(batches) != wantBatches {
			t.Fatalf("%d batches for %d queries at width %d, want %d",
				len(batches), len(queries), lanes, wantBatches)
		}
		i := 0
		for bi, b := range batches {
			if len(b) == 0 || len(b) > lanes {
				t.Fatalf("batch %d has %d queries, want 1..%d", bi, len(b), lanes)
			}
			if bi < len(batches)-1 && len(b) != lanes {
				t.Fatalf("non-final batch %d has %d queries, want %d", bi, len(b), lanes)
			}
			for lane, q := range b {
				if q != queries[i] {
					t.Fatalf("batch %d lane %d carries %+v, want %+v (lost/duplicated/cross-wired)",
						bi, lane, q, queries[i])
				}
				i++
			}
		}
		if i != len(queries) {
			t.Fatalf("batches carry %d queries, want %d", i, len(queries))
		}
	})
}

package bfs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
)

// batchQuickCases is the quick.Check case count for the batch-equivalence
// property (the acceptance bar is >= 200 cases in the default test run).
const batchQuickCases = 240

// quickGraph builds one of the property's graph shapes: random R-MAT
// instances plus the path and star degenerate shapes (a path maximizes BFS
// depth, a star maximizes a single level's fan-out — both are classic
// MS-BFS lane-merge edge cases).
func quickGraph(kind uint8, scale int, seed uint64) *edgelist.List {
	n := int64(1) << uint(scale)
	switch kind % 3 {
	case 1: // path
		list := &edgelist.List{NumVertices: n}
		for v := int64(0); v+1 < n; v++ {
			list.Edges = append(list.Edges, edgelist.Edge{U: v, V: v + 1})
		}
		return list
	case 2: // star
		list := &edgelist.List{NumVertices: n}
		for v := int64(1); v < n; v++ {
			list.Edges = append(list.Edges, edgelist.Edge{U: 0, V: v})
		}
		return list
	default: // R-MAT
		list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: seed | 1})
		if err != nil {
			panic(err)
		}
		return list
	}
}

// batchEquivalenceCase runs one property case: a batch of width B over a
// random graph, each lane checked byte-for-byte equivalent in levels to an
// independent single-source Runner run, and validated by the Graph500
// rules. stack selects the forward-graph storage: DRAM, the full
// mirror+cache+checksum NVM stack, or an NVM stack with injected transient
// faults.
func batchEquivalenceCase(t *testing.T, seed uint64, kind, stack, width uint8) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	scale := 5 + int(seed%3) // 32..128 vertices
	list := quickGraph(kind, scale, seed)
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	src := edgelist.ListSource{List: list}
	part := numa.NewPartition(topo, int(list.NumVertices))
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		return fmt.Errorf("build forward: %w", err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		return fmt.Errorf("build backward: %w", err)
	}

	var fwd ForwardAccess = DRAMForward{G: fg}
	switch stack % 3 {
	case 1: // full stack: 2-way mirror under a page cache, checksums on
		mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(nil, chunk), nil }
		sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{
			Checksums:       true,
			CacheBytes:      16 << 10,
			ReadaheadBlocks: 2,
			Replicas:        2,
		})
		if err != nil {
			return fmt.Errorf("offload forward: %w", err)
		}
		defer sf.Close()
		fwd = NVMForward{SF: sf}
	case 2: // transient faults: every 3rd read fails, retries absorb them
		mk := func(_ string, chunk int) (nvm.Storage, error) {
			return &flakyStore{Storage: nvm.NewMemStore(nil, chunk), period: 3}, nil
		}
		sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{})
		if err != nil {
			return fmt.Errorf("offload forward: %w", err)
		}
		defer sf.Close()
		fwd = NVMForward{SF: sf}
	}
	hb, err := semiext.BuildHybridBackward(bg, 0, nil, nil)
	if err != nil {
		return fmt.Errorf("hybrid backward: %w", err)
	}
	bwd := HybridBackwardAccess{HB: hb}

	b := int(width)%batchQuickMaxWidth + 1
	roots := make([]int64, b)
	for i := range roots {
		roots[i] = int64(rng.Intn(int(list.NumVertices)))
	}
	cfg := Config{Topology: topo, Alpha: 4, Beta: 40}
	br, err := NewBatchRunner(fwd, bwd, part, b, cfg)
	if err != nil {
		return err
	}
	res, err := br.RunBatch(roots)
	if err != nil {
		return fmt.Errorf("batch run: %w", err)
	}

	// Independent single-source reference over the DRAM graphs.
	refFwd, refBwd := DRAMForward{G: fg}, bwd
	single, err := NewRunner(refFwd, refBwd, part, cfg)
	if err != nil {
		return err
	}
	for l, root := range roots {
		sres, err := single.Run(root)
		if err != nil {
			return fmt.Errorf("lane %d root %d: single run: %w", l, root, err)
		}
		want, err := validate.Levels(sres.Tree, root)
		if err != nil {
			return fmt.Errorf("lane %d: single levels: %w", l, err)
		}
		got, err := validate.Levels(res.Trees[l], root)
		if err != nil {
			return fmt.Errorf("lane %d: batch levels: %w", l, err)
		}
		for v := range want {
			if want[v] != got[v] {
				return fmt.Errorf("lane %d root %d vertex %d: batch level %d, single level %d",
					l, root, v, got[v], want[v])
			}
		}
		rep, err := validate.Run(res.Trees[l], root, src)
		if err != nil {
			return fmt.Errorf("lane %d root %d: validate: %w", l, root, err)
		}
		if rep.Visited != res.Visited[l] {
			return fmt.Errorf("lane %d: visited %d, validator says %d", l, res.Visited[l], rep.Visited)
		}
	}
	return nil
}

// batchQuickMaxWidth bounds the property's batch width; kept below the
// 64-lane maximum so width+1 wrap-around stays cheap on tiny graphs while
// still crossing the one-word/lane packing boundaries.
const batchQuickMaxWidth = 64

// TestBatchEquivalenceQuick is the MS-BFS equivalence property: for
// batchQuickCases random (graph, storage stack, batch width, roots)
// tuples, every lane of a batched run is equivalent in levels to an
// independent single-source run and passes Graph500 validation — including
// under injected transient faults and with the full mirror+cache stack.
func TestBatchEquivalenceQuick(t *testing.T) {
	prop := func(seed uint64, kind, stack, width uint8) bool {
		if err := batchEquivalenceCase(t, seed, kind, stack, width); err != nil {
			t.Logf("seed=%d kind=%d stack=%d width=%d: %v", seed, kind, stack, width, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: batchQuickCases}); err != nil {
		t.Fatal(err)
	}
}

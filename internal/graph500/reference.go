package graph500

import (
	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
)

// RunReference executes Steps 2-4 over list using the Graph500
// reference-implementation baseline (plain top-down BFS over a single
// non-partitioned CSR, DRAM-only) — the lowest bar in Figure 8. Scenario
// and mode fields of p are ignored.
func RunReference(list *edgelist.List, p Params) (*Result, error) {
	p = p.WithDefaults()
	src := edgelist.ListSource{List: list}
	g, err := csr.BuildSimple(src)
	if err != nil {
		return nil, err
	}
	runner, err := bfs.NewRefRunner(g, p.BFS.Topology, p.BFS.Cost)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Params:    p,
		N:         src.NumVertices(),
		M:         src.NumEdges(),
		DRAMBytes: g.Bytes(),
	}
	roots, err := SampleRoots(src.NumVertices(), p.Roots, p.Seed, g.Degree)
	if err != nil {
		return nil, err
	}
	if err := res.runRoots(runner.Run, roots, src, g.Degree); err != nil {
		return nil, err
	}
	return res, nil
}

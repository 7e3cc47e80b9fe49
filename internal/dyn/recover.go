package dyn

import (
	"fmt"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// Recover rebuilds a dynamic graph from its durable state after a crash
// (power cut, replica death, plain restart). It runs deterministically in
// virtual time:
//
//  1. The manifest names the live generation g and the WAL watermark.
//  2. Generation g's forward stores are reopened in place (no writes;
//     checksum layers re-derive their sums from the media).
//  3. The backward graph is rebuilt by transposing the forward adjacency
//     — the CSR builders and the offload encoding are deterministic, so
//     the rewritten tail stores hold exactly the bytes compaction wrote,
//     and a mirror that lost a replica simply rebuilds over the
//     survivors.
//  4. The WAL's surviving records past the watermark are replayed into
//     fresh overlays; a torn tail record (power cut mid-append) is
//     discarded, matching the failed Apply the writer observed.
//
// mk must resolve store names to the same media the crashed instance
// wrote (see Media).
func Recover(part *numa.Partition, mk semiext.StoreFactory, clock *vtime.Clock, opts Options) (*Graph, error) {
	g := &Graph{Part: part, mk: mk, opts: opts}
	if err := g.openManifest(clock); err != nil {
		return nil, err
	}
	fo, bo := opts.Forward, opts.Backward
	fo.StoreSuffix, bo.StoreSuffix = genSuffix(g.gen), genSuffix(g.gen)

	sf, err := semiext.OpenForward(part, mk, clock, fo)
	if err != nil {
		g.manifest.Close()
		return nil, fmt.Errorf("dyn: recover forward gen %d: %w", g.gen, err)
	}
	// Transpose the recovered forward adjacency back into an edge list
	// (every undirected edge appears in both endpoints' lists; taking the
	// v < nb half restores exact multiplicity) and rebuild the backward
	// graph from it. Decoding everything also restores the raw-size
	// accounting OpenForward cannot know for compressed stores.
	list, err := transposeForward(sf, part, clock, sf.ValueBytesRaw/16)
	if err != nil {
		sf.Close()
		g.manifest.Close()
		return nil, fmt.Errorf("dyn: recover transpose: %w", err)
	}
	if opts.Forward.Compress {
		sf.ValueBytesRaw = 2 * int64(len(list.Edges)) * 8
	}
	bg, err := csr.BuildBackward(edgelist.ListSource{List: list}, part, csr.SortByDegreeDesc)
	if err != nil {
		sf.Close()
		g.manifest.Close()
		return nil, err
	}
	bo.Cache = sf.Cache()
	hb, err := semiext.OffloadBackward(bg, mk, clock, bo)
	if err != nil {
		sf.Close()
		g.manifest.Close()
		return nil, fmt.Errorf("dyn: recover backward gen %d: %w", g.gen, err)
	}
	g.install(sf, hb)

	if err := g.openWAL(clock, func(_ uint64, payload []byte) error {
		batch, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		// Replayed records were validated by the original Apply against
		// this exact state trajectory; apply them verbatim.
		for _, up := range batch {
			g.applyToOverlays(up)
			g.stats.Applied++
		}
		g.stats.Batches++
		return nil
	}); err != nil {
		sf.Close()
		hb.Close()
		g.manifest.Close()
		return nil, err
	}
	return g, nil
}

// transposeForward reads every vertex's forward adjacency (across all
// owner nodes) through sf and returns the undirected edge list, charging
// the reads to clock. edges is the list's expected length, which sizes it
// once (0 when unknown: the list then grows as it fills).
func transposeForward(sf *semiext.SemiForward, part *numa.Partition, clock *vtime.Clock, edges int64) (*edgelist.List, error) {
	r := semiext.NewForwardReader(sf, clock)
	n := int64(part.N)
	list := &edgelist.List{NumVertices: n, Edges: make([]edgelist.Edge, 0, edges)}
	for v := int64(0); v < n; v++ {
		for k := range sf.PerNode {
			nbs, err := r.Neighbors(k, v)
			if err != nil {
				return nil, err
			}
			for _, nb := range nbs {
				if v < nb {
					list.Edges = append(list.Edges, edgelist.Edge{U: v, V: nb})
				}
			}
		}
	}
	return list, nil
}

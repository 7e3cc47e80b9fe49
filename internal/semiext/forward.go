// Package semiext implements the paper's primary contribution: offloading
// NETAL's CSR graphs to semi-external memory (NVM) and reading them back
// on demand during BFS.
//
// Two structures are provided:
//
//   - SemiForward (Section V-B): the forward (top-down) graph offloaded
//     entirely to NVM. Per NUMA node there are two files — the index
//     ("array") file and the value file, so the whole graph occupies twice
//     as many files as there are NUMA nodes. A top-down worker reads the
//     two index entries bracketing a frontier vertex, computes the value
//     range, and reads it in chunks of at most 4 KiB.
//
//   - HybridBackward (Sections V-C and VI-E): the backward (bottom-up)
//     graph with only the first k neighbors of each vertex resident in
//     DRAM and the remaining neighbors offloaded to NVM, read in a
//     streaming fashion only when the DRAM prefix fails to produce a
//     parent. Because NETAL orders neighbors by descending degree, the
//     DRAM prefix holds the hubs, which answer the vast majority of
//     bottom-up searches.
//
// Both structures build their stores through nvm.BuildStack, so every
// resilience concern — retry/backoff, page caching, mirroring, checksums
// — is a declarative stack layer rather than wiring baked into this
// package.
package semiext

import (
	"encoding/binary"
	"fmt"

	"semibfs/internal/csr"
	"semibfs/internal/enc"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// StoreFactory creates a named base store on the NVM device backing an
// offload, issuing device requests of at most chunk bytes (chunk <= 0
// selects the 4 KiB default). Implementations decide where files live (a
// temp directory, a RAM-backed MemStore for tests, ...). The factory is
// handed to nvm.BuildStack as the stack's base layer, so mirrored
// configurations call it once per replica with "-r<i>"-suffixed names.
type StoreFactory func(name string, chunk int) (nvm.Storage, error)

// AggregatedChunk is the request size used when I/O aggregation is
// enabled — the paper's Section VI-D observes that "we may exploit further
// I/O performance of the devices by aggregating small I/O operations such
// as libaio library"; this implements that suggestion by letting a whole
// adjacency travel in requests of up to 128 KiB instead of 4 KiB.
const AggregatedChunk = 128 << 10

// ForwardOptions configure an offloaded forward graph.
type ForwardOptions struct {
	// IndexInDRAM keeps each node's index array resident in DRAM and
	// only the value arrays on NVM. The paper keeps both on NVM (the
	// default here); the DRAM-index variant is an ablation that halves
	// the request count per low-degree vertex.
	IndexInDRAM bool
	// AggregateIO raises the request size cap from the paper's 4 KiB
	// to AggregatedChunk (the libaio-style aggregation of §VI-D).
	AggregateIO bool
	// Checksums enables per-block CRC32-C verification on every store
	// (per replica when mirrored).
	Checksums bool
	// CacheBytes, when positive, puts a shared DRAM page cache of that
	// budget into every store's stack (FlashGraph's SAFS-style cache
	// applied to the forward graph). Pages are chunkBytes()-sized so a
	// fill is exactly one device request and aligns with checksum
	// verification blocks.
	CacheBytes int64
	// ReadaheadBlocks, when positive with CacheBytes set, prefetches
	// that many value blocks past each adjacency read. Neighbor lists
	// are laid out consecutively, so during top-down hub expansion the
	// next frontier vertex on the same node usually lands in a
	// prefetched block.
	ReadaheadBlocks int
	// Replicas, when > 1, mirrors every store across that many replicas
	// created by the factory (names get a "-r<i>" suffix). Reads are
	// served from the least-loaded healthy replica and fail over
	// transparently; the mirror sits *under* the retry layer and page
	// cache, so cached pages are replica-agnostic and a retry re-selects
	// a replica.
	Replicas int
	// Mirror tunes the replica health thresholds and background scrubber
	// when Replicas > 1 (zero value: library defaults, no scrubbing).
	Mirror nvm.MirrorConfig
	// Retry is the stack's retry/backoff policy; the zero value selects
	// nvm.DefaultRetryPolicy.
	Retry RetryPolicy
	// Compress stores the value arrays delta+varint encoded (internal/enc)
	// instead of as raw 8-byte IDs: the index stores then hold byte
	// offsets into the encoded stream, neighbor lists are sorted so hub
	// adjacencies shrink ~2-4x, decode cost is charged to the worker's
	// clock per the device profile. CacheBytes is the page cache's either
	// way: it holds the encoded pages and every list is decoded per read.
	Compress bool
	// QueueDepth > 0 enables the asynchronous coalescing I/O pipeline
	// (nvm.AsyncStore) above the page cache: multi-block demand reads and
	// frontier prefetch travel as large coalesced device requests bounded
	// by this many in-flight slots. Requires CacheBytes > 0; zero keeps
	// the synchronous request-at-a-time baseline.
	QueueDepth int
	// FrontierPrefetch caps how many upcoming frontier vertices a
	// worker's PrefetchFrontier call pushes through the prefetcher at
	// once. <= 0 disables frontier-driven prefetch.
	FrontierPrefetch int
	// StoreSuffix is appended to every store name (before the mirror
	// layer's "-r<i>" replica suffix). Log-structured compaction uses it
	// to address CSR generations (".g1", ".g2", ...) so a new generation
	// is written beside the live one and swapped in atomically.
	StoreSuffix string
}

// replicas returns the effective replica count (always >= 1).
func (o ForwardOptions) replicas() int {
	if o.Replicas < 1 {
		return 1
	}
	return o.Replicas
}

// chunkBytes returns the request size cap the options select.
func (o ForwardOptions) chunkBytes() int {
	if o.AggregateIO {
		return AggregatedChunk
	}
	return nvm.DefaultChunkSize
}

// SemiForward is the NVM-resident forward graph: for each NUMA node k, an
// index store of (N+1) little-endian int64 entries and a value store of
// int64 vertex IDs holding only the neighbors owned by node k.
type SemiForward struct {
	Part    *numa.Partition
	PerNode []*ForwardNode
	Options ForwardOptions
	// cache is the shared page cache all node stores read through, nil
	// when Options.CacheBytes is zero.
	cache *nvm.PageCache
	// overlay, when set, holds pending dynamic-graph edits that readers
	// merge into the stored adjacency (see SetOverlay).
	overlay *DeltaOverlay
	// ValueBytesRaw / ValueBytesStored measure the value arrays before
	// and after encoding (equal when Compress is off) — the compression
	// ratio the sweeps report.
	ValueBytesRaw    int64
	ValueBytesStored int64
}

// ForwardNode is one NUMA node's slice of the offloaded forward graph.
type ForwardNode struct {
	N int64
	// IndexStore / ValueStore are the full storage stacks built by
	// nvm.BuildStack (metrics → retry → cache → mirror → checksum →
	// base, with layers the options left off elided).
	IndexStore nvm.Storage
	ValueStore nvm.Storage
	// dramIndex is populated only when IndexInDRAM is enabled. It holds
	// element offsets for raw graphs and byte offsets into the encoded
	// stream for compressed ones, mirroring the on-NVM index.
	dramIndex []int64
	// valueCache is ValueStore's cache layer when a page cache is
	// configured; readers use it for readahead prefetch.
	valueCache *nvm.CachedStore
	// valuePre / idxPre are the outermost prefetch-capable layers of the
	// two stacks (the async pipeline when QueueDepth > 0, else the cache;
	// nil without a cache). Frontier-driven readahead goes through these.
	valuePre nvm.Prefetcher
	idxPre   nvm.Prefetcher
}

// OffloadForward writes fg to storage stacks built over mk (two per NUMA
// node, named "fwd-node<k>-index" / "fwd-node<k>-value") and returns the
// semi-external handle. Device time for the writes is charged to clock.
func OffloadForward(fg *csr.ForwardGraph, mk StoreFactory, clock *vtime.Clock, opts ForwardOptions) (*SemiForward, error) {
	sf := &SemiForward{
		Part:    fg.Part,
		PerNode: make([]*ForwardNode, len(fg.PerNode)),
		Options: opts,
	}
	// On any error, close every stack created so far — including the
	// current and previous nodes' — so a failed offload leaks nothing.
	// BuildStack itself closes the partial stack it was assembling, so
	// each entry here is a whole stack closed exactly once.
	var created []nvm.Storage
	fail := func(err error) (*SemiForward, error) {
		for _, st := range created {
			st.Close()
		}
		return nil, err
	}
	mkStack := forwardStackBuilder(sf, mk, opts)
	for k, g := range fg.PerNode {
		idxStore, err := mkStack(forwardStoreName(k, "index", opts))
		if err != nil {
			return fail(err)
		}
		created = append(created, idxStore)
		valStore, err := mkStack(forwardStoreName(k, "value", opts))
		if err != nil {
			return fail(err)
		}
		created = append(created, valStore)
		// Offload writes go through the full stack: the cache layer is
		// write-through with invalidation, so it stays cold and
		// traversal-time fills are the only pages it ever holds.
		index := g.Index
		sf.ValueBytesRaw += int64(len(g.Value)) * 8
		if opts.Compress {
			// Encode each vertex's (sorted) list back to back; the index
			// becomes byte offsets into the encoded stream.
			var encoded []byte
			index = make([]int64, g.NumVertices+1)
			for v := int64(0); v < g.NumVertices; v++ {
				encoded = enc.AppendList(encoded, v, g.Neighbors(v))
				index[v+1] = int64(len(encoded))
			}
			sf.ValueBytesStored += int64(len(encoded))
			if err := writeBytes(valStore, clock, encoded); err != nil {
				return fail(fmt.Errorf("semiext: offload value node %d: %w", k, err))
			}
		} else {
			sf.ValueBytesStored += int64(len(g.Value)) * 8
			if err := writeInt64s(valStore, clock, g.Value); err != nil {
				return fail(fmt.Errorf("semiext: offload value node %d: %w", k, err))
			}
		}
		if err := writeInt64s(idxStore, clock, index); err != nil {
			return fail(fmt.Errorf("semiext: offload index node %d: %w", k, err))
		}
		node := &ForwardNode{
			N:          g.NumVertices,
			IndexStore: idxStore,
			ValueStore: valStore,
			valueCache: nvm.StackCache(valStore),
			valuePre:   nvm.StackPrefetcher(valStore),
			idxPre:     nvm.StackPrefetcher(idxStore),
		}
		if opts.IndexInDRAM {
			node.dramIndex = append([]int64(nil), index...)
		}
		sf.PerNode[k] = node
	}
	return sf, nil
}

// forwardStoreName names node k's index or value store, with the
// options' generation suffix applied. The mirror layer's "-r<i>" replica
// suffix is appended after this name, so nvm.ReplicaIndex keeps parsing.
func forwardStoreName(k int, kind string, opts ForwardOptions) string {
	return fmt.Sprintf("fwd-node%d-%s%s", k, kind, opts.StoreSuffix)
}

// forwardStackBuilder wires sf's shared page cache and returns the
// per-name stack constructor OffloadForward and OpenForward share.
func forwardStackBuilder(sf *SemiForward, mk StoreFactory, opts ForwardOptions) func(name string) (nvm.Storage, error) {
	chunk := opts.chunkBytes()
	if opts.CacheBytes > 0 {
		// One cache shared by every node's stores, so the DRAM budget is
		// global and hot index blocks compete with hot value blocks.
		sf.cache = nvm.NewPageCache(opts.CacheBytes, chunk, numa.CostModel{})
	}
	return func(name string) (nvm.Storage, error) {
		return nvm.BuildStack(nvm.StackSpec{
			Name:       name,
			Chunk:      chunk,
			Base:       nvm.BaseFactory(mk),
			Checksum:   opts.Checksums,
			Replicas:   opts.replicas(),
			Mirror:     opts.Mirror,
			Cache:      sf.cache,
			QueueDepth: opts.QueueDepth,
			BaseChunk:  AggregatedChunk,
			Retry:      opts.Retry,
		})
	}
}

// OpenForward reassembles a SemiForward handle over stores that already
// hold an offloaded forward graph — the recovery path after a crash or
// restart. It builds the same stacks by name over mk without writing a
// byte, re-reads each node's index array to restore the DRAM index copies
// and size accounting, and leaves the value stores untouched (the
// checksum layer re-derives its block sums from the existing content when
// it wraps the media).
//
// ValueBytesRaw is restored exactly for raw graphs; for compressed ones
// the raw size is unknowable without a full decode, so it is left 0 for
// the caller to fill in (recovery's backward-graph rebuild decodes
// everything anyway).
func OpenForward(part *numa.Partition, mk StoreFactory, clock *vtime.Clock, opts ForwardOptions) (*SemiForward, error) {
	nodes := part.Topology.Nodes
	sf := &SemiForward{
		Part:    part,
		PerNode: make([]*ForwardNode, nodes),
		Options: opts,
	}
	var created []nvm.Storage
	fail := func(err error) (*SemiForward, error) {
		for _, st := range created {
			st.Close()
		}
		return nil, err
	}
	mkStack := forwardStackBuilder(sf, mk, opts)
	n := int64(part.N)
	index := make([]int64, n+1)
	var scratch []byte
	for k := 0; k < nodes; k++ {
		idxStore, err := mkStack(forwardStoreName(k, "index", opts))
		if err != nil {
			return fail(err)
		}
		created = append(created, idxStore)
		valStore, err := mkStack(forwardStoreName(k, "value", opts))
		if err != nil {
			return fail(err)
		}
		created = append(created, valStore)
		// Each node's index spans all N vertices (the forward graph holds,
		// per node, every vertex's neighbors owned by that node).
		if err := readInt64s(idxStore, clock, 0, n+1, index, &scratch); err != nil {
			return fail(fmt.Errorf("semiext: open forward index node %d: %w", k, err))
		}
		if opts.Compress {
			sf.ValueBytesStored += index[n]
		} else {
			sf.ValueBytesRaw += index[n] * 8
			sf.ValueBytesStored += index[n] * 8
		}
		node := &ForwardNode{
			N:          n,
			IndexStore: idxStore,
			ValueStore: valStore,
			valueCache: nvm.StackCache(valStore),
			valuePre:   nvm.StackPrefetcher(valStore),
			idxPre:     nvm.StackPrefetcher(idxStore),
		}
		if opts.IndexInDRAM {
			node.dramIndex = append([]int64(nil), index...)
		}
		sf.PerNode[k] = node
	}
	return sf, nil
}

// SetOverlay attaches the DRAM edge-delta overlay readers merge into the
// stored adjacency. Attach it before readers run concurrently; the
// overlay's own snapshots handle edits racing reads after that.
func (sf *SemiForward) SetOverlay(o *DeltaOverlay) { sf.overlay = o }

// Overlay returns the attached overlay, or nil.
func (sf *SemiForward) Overlay() *DeltaOverlay { return sf.overlay }

// OverlaySlot maps (owner node k, vertex v) to the overlay slot holding
// v's pending edits among node k's neighbors. The forward graph
// partitions each vertex's adjacency by neighbor owner, so the overlay is
// keyed the same way: an inserted edge (v, nb) lands in slot
// OverlaySlot(Part.NodeOf(nb), v).
func (sf *SemiForward) OverlaySlot(k int, v int64) int64 {
	return v*int64(len(sf.PerNode)) + int64(k)
}

// Stacks returns every storage stack backing the graph (index and value
// store per node), outermost layer first. The BFS engine walks these to
// collect per-layer statistics.
func (sf *SemiForward) Stacks() []nvm.Storage {
	out := make([]nvm.Storage, 0, 2*len(sf.PerNode))
	for _, n := range sf.PerNode {
		out = append(out, n.IndexStore, n.ValueStore)
	}
	return out
}

// LayerStats collects the per-layer counters of every backing stack.
func (sf *SemiForward) LayerStats() nvm.StackStats {
	return nvm.CollectStacks(sf.Stacks()...)
}

// NVMBytes returns the total bytes resident on NVM, counting every mirror
// replica's physical copy.
func (sf *SemiForward) NVMBytes() int64 {
	var b int64
	for _, st := range sf.Stacks() {
		b += nvm.StackPhysicalBytes(st)
	}
	return b
}

// DRAMBytes returns the DRAM kept by the handle: the in-DRAM index copies
// (IndexInDRAM) plus the page cache budget (CacheBytes).
func (sf *SemiForward) DRAMBytes() int64 {
	var b int64
	for _, n := range sf.PerNode {
		b += int64(len(n.dramIndex)) * 8
	}
	if sf.cache != nil {
		b += sf.cache.CapacityBytes()
	}
	return b
}

// CompressionRatio returns raw value bytes over stored value bytes
// (1 when not compressed or nothing stored).
func (sf *SemiForward) CompressionRatio() float64 {
	if sf.ValueBytesStored <= 0 {
		return 1
	}
	return float64(sf.ValueBytesRaw) / float64(sf.ValueBytesStored)
}

// DecodedCacheStats is all zero: the decoded-list cache is gone and only
// the frozen bench/ harness still asks.
func (sf *SemiForward) DecodedCacheStats() (hits, misses, bytes int64) { return 0, 0, 0 }

// Cache returns the shared page cache, or nil when none is configured.
func (sf *SemiForward) Cache() *nvm.PageCache { return sf.cache }

// CacheStats returns the page cache's counters (zero value if no cache).
func (sf *SemiForward) CacheStats() nvm.CacheStats {
	if sf.cache == nil {
		return nvm.CacheStats{}
	}
	return sf.cache.Stats()
}

// Close closes all backing stacks (each stack closes its layers down to
// the base store exactly once).
func (sf *SemiForward) Close() error {
	var first error
	for _, n := range sf.PerNode {
		if err := n.IndexStore.Close(); err != nil && first == nil {
			first = err
		}
		if err := n.ValueStore.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ForwardReader is a per-worker cursor over one SemiForward. It owns the
// scratch buffers so concurrent workers never contend, and charges all
// device time to the owning worker's clock. Retry/backoff and caching
// happen inside the storage stack; the reader just reads.
type ForwardReader struct {
	sf      *SemiForward
	clock   *vtime.Clock
	byteBuf []byte
	valBuf  []int64
	// idBuf is streamNeighbors' per-chunk decode scratch.
	idBuf []int64
	// EdgesRead counts neighbor IDs delivered from NVM.
	EdgesRead int64
	// IndexReads counts index-entry fetches that went to NVM.
	IndexReads int64
}

// NewForwardReader returns a reader charging device time to clock. The
// reader's transfer buffer matches the graph's request size cap (4 KiB,
// or AggregatedChunk when the graph was offloaded with AggregateIO).
func NewForwardReader(sf *SemiForward, clock *vtime.Clock) *ForwardReader {
	return &ForwardReader{
		sf:      sf,
		clock:   clock,
		byteBuf: make([]byte, sf.Options.chunkBytes()),
	}
}

// Neighbors returns vertex v's neighbors held by NUMA node k's replica.
// The returned slice is valid until the next call on this reader.
func (r *ForwardReader) Neighbors(k int, v int64) ([]int64, error) {
	node := r.sf.PerNode[k]
	lo, hi, err := r.indexRange(node, v)
	if err != nil {
		return nil, err
	}
	var delta vertexDelta
	if o := r.sf.overlay; o != nil {
		delta = o.delta(r.sf.OverlaySlot(k, v))
	}
	if hi == lo {
		if len(delta.adds) == 0 {
			return nil, nil
		}
		// Pure-overlay adjacency: the vertex had no stored neighbors on
		// this node; serve the pending adds straight from DRAM.
		out := append(r.valBuf[:0], delta.adds...)
		r.valBuf = out[:0]
		r.EdgesRead += int64(len(out))
		return out, nil
	}
	compress := r.sf.Options.Compress
	// Byte extent of the range on NVM: raw entries are 8 bytes each, a
	// compressed range is bytes already.
	byteLo, byteLen := lo, hi-lo
	if !compress {
		byteLo, byteLen = lo*8, (hi-lo)*8
	}

	out, err := r.readRange(node, v, lo, hi, delta, r.valBuf[:0])
	r.valBuf = out[:0]
	if err != nil {
		return nil, err
	}
	if ra := r.sf.Options.ReadaheadBlocks; ra > 0 && node.valuePre != nil {
		if bb := r.blockBytes(node); byteLen >= bb {
			// Hub expansion: this adjacency spans at least a whole block,
			// so the traversal is in the dense low-vertex-ID region where
			// adjacencies are stored back to back — the blocks after this
			// range hold the next frontier vertices' neighbors. Small
			// adjacencies skip readahead; prefetching around them mostly
			// pollutes the cache.
			node.valuePre.Prefetch(r.clock, byteLo+byteLen, int64(ra)*bb)
		}
	}
	r.EdgesRead += int64(len(out))
	return out, nil
}

// indexRange returns vertex v's [lo, hi) range in the value store —
// element offsets for raw graphs, byte offsets for compressed ones.
func (r *ForwardReader) indexRange(node *ForwardNode, v int64) (lo, hi int64, err error) {
	if node.dramIndex != nil {
		return node.dramIndex[v], node.dramIndex[v+1], nil
	}
	// One request covering both bracketing index entries.
	buf := growBytes(&r.byteBuf, 16)
	if err := node.IndexStore.ReadAt(r.clock, buf, v*8); err != nil {
		return 0, 0, err
	}
	r.IndexReads++
	return int64(binary.LittleEndian.Uint64(buf[0:8])),
		int64(binary.LittleEndian.Uint64(buf[8:16])), nil
}

// readRange materializes the whole range [lo, hi) of v's neighbors into
// out (appending), merging delta's pending edits at stream time. The span
// travels as one stack read (see streamNeighbors with a whole-span chunk),
// so multi-block hubs hit the async pipeline's coalescer when it is
// configured.
func (r *ForwardReader) readRange(node *ForwardNode, v, lo, hi int64, delta vertexDelta, out []int64) ([]int64, error) {
	compress := r.sf.Options.Compress
	span := hi - lo
	if !compress {
		span *= 8
	}
	_, err := streamNeighbors(node.ValueStore, r.clock, compress, v, lo, hi,
		&r.byteBuf, &r.idBuf, int(span), delta.adds, delta.dels, func(nb int64) bool {
			out = append(out, nb)
			return true
		})
	return out, err
}

// blockBytes returns the cache page size, or the default chunk when no
// cache is configured.
func (r *ForwardReader) blockBytes(node *ForwardNode) int64 {
	if node.valueCache != nil {
		return node.valueCache.Cache().BlockBytes()
	}
	return nvm.DefaultChunkSize
}

// PrefetchFrontier issues asynchronous readahead for the adjacency ranges
// of upcoming frontier vertices vs (sorted ascending, owned by node k),
// capped at Options.FrontierPrefetch vertices. With the index in DRAM the
// value ranges are prefetched directly, merged into maximal runs so the
// async pipeline coalesces them into large device requests; with the
// index on NVM only the index blocks are prefetched (the value ranges are
// unknown until the index entries arrive — readahead must never issue a
// dependent synchronous read). The caller's clock marks the issue time
// and is never advanced.
func (r *ForwardReader) PrefetchFrontier(k int, vs []int64) {
	pf := r.sf.Options.FrontierPrefetch
	if pf <= 0 || len(vs) == 0 {
		return
	}
	if len(vs) > pf {
		vs = vs[:pf]
	}
	node := r.sf.PerNode[k]
	if node.dramIndex != nil {
		if node.valuePre == nil {
			return
		}
		mult := int64(1)
		if !r.sf.Options.Compress {
			mult = 8
		}
		gap := r.blockBytes(node)
		runLo, runHi := int64(-1), int64(-1)
		for _, v := range vs {
			lo, hi := node.dramIndex[v]*mult, node.dramIndex[v+1]*mult
			if hi == lo {
				continue
			}
			switch {
			case runLo < 0:
				runLo, runHi = lo, hi
			case lo <= runHi+gap:
				// Adjacent or near-adjacent in the value stream (frontier
				// is sorted, CSR is contiguous): extend the run.
				if hi > runHi {
					runHi = hi
				}
			default:
				node.valuePre.Prefetch(r.clock, runLo, runHi-runLo)
				runLo, runHi = lo, hi
			}
		}
		if runLo >= 0 {
			node.valuePre.Prefetch(r.clock, runLo, runHi-runLo)
		}
		return
	}
	if node.idxPre == nil {
		return
	}
	runLo, runHi := int64(-1), int64(-1)
	gap := r.blockBytes(node)
	for _, v := range vs {
		lo, hi := v*8, v*8+16
		switch {
		case runLo < 0:
			runLo, runHi = lo, hi
		case lo <= runHi+gap:
			if hi > runHi {
				runHi = hi
			}
		default:
			node.idxPre.Prefetch(r.clock, runLo, runHi-runLo)
			runLo, runHi = lo, hi
		}
	}
	if runLo >= 0 {
		node.idxPre.Prefetch(r.clock, runLo, runHi-runLo)
	}
}

// writeInt64s streams vals into store from offset 0 in chunk-sized writes.
func writeInt64s(store nvm.Storage, clock *vtime.Clock, vals []int64) error {
	const perChunk = nvm.DefaultChunkSize / 8
	buf := make([]byte, nvm.DefaultChunkSize)
	for off := 0; off < len(vals); off += perChunk {
		chunk := vals[off:min(off+perChunk, len(vals))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if err := store.WriteAt(clock, buf[:8*len(chunk)], int64(off)*8); err != nil {
			return err
		}
	}
	return nil
}

// writeBytes streams p into store from offset 0 in chunk-sized writes.
func writeBytes(store nvm.Storage, clock *vtime.Clock, p []byte) error {
	for off := int64(0); off < int64(len(p)); off += nvm.DefaultChunkSize {
		end := off + nvm.DefaultChunkSize
		if end > int64(len(p)) {
			end = int64(len(p))
		}
		if err := store.WriteAt(clock, p[off:end], off); err != nil {
			return err
		}
	}
	return nil
}

// readInt64s reads count int64 values starting at element offset elemOff
// into out. The caller-owned scratch buffer is grown once to the full
// span and reused across calls (steady-state reads allocate nothing —
// BenchmarkReadInt64s guards this), and the span travels as a single
// stack read: the base store's own chunking caps media request sizes, so
// the device sees the same requests as the old chunk-at-a-time loop
// without re-reading checksum blocks at every chunk seam. Resilience
// (retry, failover, verification) is the store stack's job, not the
// decoder's.
func readInt64s(store nvm.Storage, clock *vtime.Clock, elemOff, count int64, out []int64, scratch *[]byte) error {
	if count <= 0 {
		return nil
	}
	buf := growBytes(scratch, count*8)
	if err := store.ReadAt(clock, buf, elemOff*8); err != nil {
		return err
	}
	for i := int64(0); i < count; i++ {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

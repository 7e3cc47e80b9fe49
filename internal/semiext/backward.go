package semiext

import (
	"fmt"

	"semibfs/internal/csr"
	"semibfs/internal/enc"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// BackwardOptions configure a partially offloaded backward graph. The
// zero value keeps the whole graph in DRAM.
type BackwardOptions struct {
	// KeepEdges is the paper's k (Section VI-E): each vertex keeps its
	// first KeepEdges neighbors in DRAM and offloads the remainder ("the
	// tail") to NVM. <= 0 keeps everything in DRAM and creates no
	// stores.
	KeepEdges int
	// Checksums enables per-block CRC32-C verification on the tail
	// stores (per replica when mirrored).
	Checksums bool
	// Replicas, when > 1, mirrors every tail store across that many
	// replicas created by the factory (names get a "-r<i>" suffix).
	Replicas int
	// Mirror tunes replica health thresholds and the background scrubber
	// when Replicas > 1.
	Mirror nvm.MirrorConfig
	// Cache, when non-nil, routes tail reads through the given shared
	// page cache — typically the forward graph's, so one DRAM budget
	// serves the whole offloaded graph (the FlashGraph/SAFS layering).
	Cache *nvm.PageCache
	// Retry is the stack's retry/backoff policy; the zero value selects
	// nvm.DefaultRetryPolicy.
	Retry RetryPolicy
	// Compress stores the tails delta+varint encoded (internal/enc). The
	// element-count TailIndex is kept (Degree and the sweeps depend on
	// it); a parallel TailByteIndex addresses the encoded stream. Tails
	// keep the source graph's order (degree-descending under NETAL's
	// sort), which the zig-zag deltas encode correctly, just less tightly
	// than sorted lists.
	Compress bool
	// QueueDepth > 0 enables the async coalescing pipeline on the tail
	// stores (requires Cache; see ForwardOptions.QueueDepth).
	QueueDepth int
	// StoreSuffix is appended to every tail store name (before the
	// mirror's "-r<i>" replica suffix); compaction uses it to address CSR
	// generations, mirroring ForwardOptions.StoreSuffix.
	StoreSuffix string
}

// HybridBackward is the backward (bottom-up) graph with a bounded DRAM
// footprint: each vertex keeps its first Limit neighbors in DRAM and the
// remainder ("the tail") on NVM (Section VI-E). Limit <= 0 keeps the whole
// graph in DRAM, which is the paper's default configuration (Section V-C
// notes tail offloading is the natural next step, and Figure 14 estimates
// its cost — both of which this type implements for real).
//
// The neighbor order of the source graph is preserved, so when the
// backward graph was built with csr.SortByDegreeDesc the DRAM prefix holds
// each vertex's highest-degree neighbors — the ones overwhelmingly likely
// to already be in the frontier during the big bottom-up levels.
type HybridBackward struct {
	Part  *numa.Partition
	Limit int
	// PerNode[k] holds node k's vertex range.
	PerNode []*BackwardNode
	// Options are the options the graph was built with.
	Options BackwardOptions
	// overlay, when set, holds pending dynamic-graph edits that scanners
	// merge into the stored adjacency, keyed by vertex (see SetOverlay).
	overlay *DeltaOverlay
}

// SetOverlay attaches the DRAM edge-delta overlay scanners merge into
// the stored adjacency. The backward overlay is keyed by vertex: an
// inserted edge (v, nb) lands in slot v. Attach before scanners run
// concurrently.
func (hb *HybridBackward) SetOverlay(o *DeltaOverlay) { hb.overlay = o }

// Overlay returns the attached overlay, or nil.
func (hb *HybridBackward) Overlay() *DeltaOverlay { return hb.overlay }

// BackwardNode is one NUMA node's slice of a HybridBackward graph.
type BackwardNode struct {
	Base int64
	Len  int64
	// DRAMIndex/DRAMValue is a CSR over the per-vertex DRAM prefixes
	// (min(Limit, degree) neighbors each).
	DRAMIndex []int64
	DRAMValue []int64
	// TailIndex is the CSR index of the offloaded tails in *elements*
	// (degrees derive from it regardless of encoding); TailStore holds
	// the concatenated tails behind the full storage stack built by
	// nvm.BuildStack. TailStore is nil when nothing was offloaded from
	// this node.
	TailIndex []int64
	TailStore nvm.Storage
	// TailByteIndex addresses each vertex's encoded tail in the store
	// when the tails are compressed (nil for raw tails, where the byte
	// offset is TailIndex * 8).
	TailByteIndex []int64
}

// Degree returns the full degree (DRAM prefix + NVM tail) of global
// vertex v, which must belong to this node.
func (n *BackwardNode) Degree(v int64) int64 {
	i := v - n.Base
	d := n.DRAMIndex[i+1] - n.DRAMIndex[i]
	if n.TailIndex != nil {
		d += n.TailIndex[i+1] - n.TailIndex[i]
	}
	return d
}

// OffloadBackward splits bg into DRAM prefixes of at most opts.KeepEdges
// neighbors per vertex plus NVM tails written to storage stacks built
// over mk (one per NUMA node, named "bwd-node<k>-tail"). The stacks are
// declared through the same nvm.BuildStack pipeline the forward graph
// uses, so the tail stores carry the identical middleware — retry,
// optional cache, mirroring, and checksums.
func OffloadBackward(bg *csr.BackwardGraph, mk StoreFactory, clock *vtime.Clock, opts BackwardOptions) (*HybridBackward, error) {
	hb := &HybridBackward{
		Part:    bg.Part,
		Limit:   opts.KeepEdges,
		PerNode: make([]*BackwardNode, len(bg.PerNode)),
		Options: opts,
	}
	// Close every stack created so far on any error (same close-on-error
	// discipline as OffloadForward), so a failed build leaks nothing.
	var created []nvm.Storage
	fail := func(err error) (*HybridBackward, error) {
		for _, st := range created {
			st.Close()
		}
		return nil, err
	}
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	for k, g := range bg.PerNode {
		node := &BackwardNode{Base: g.Base, Len: g.Len}
		if opts.KeepEdges <= 0 {
			// Whole graph in DRAM: share the source arrays.
			node.DRAMIndex = g.Index
			node.DRAMValue = g.Value
			hb.PerNode[k] = node
			continue
		}
		lim := int64(opts.KeepEdges)
		node.DRAMIndex = make([]int64, g.Len+1)
		node.TailIndex = make([]int64, g.Len+1)
		for i := int64(0); i < g.Len; i++ {
			deg := g.Index[i+1] - g.Index[i]
			keep := deg
			if keep > lim {
				keep = lim
			}
			node.DRAMIndex[i+1] = node.DRAMIndex[i] + keep
			node.TailIndex[i+1] = node.TailIndex[i] + (deg - keep)
		}
		node.DRAMValue = make([]int64, node.DRAMIndex[g.Len])
		tail := make([]int64, node.TailIndex[g.Len])
		for i := int64(0); i < g.Len; i++ {
			nb := g.Value[g.Index[i]:g.Index[i+1]]
			keep := node.DRAMIndex[i+1] - node.DRAMIndex[i]
			copy(node.DRAMValue[node.DRAMIndex[i]:], nb[:keep])
			copy(tail[node.TailIndex[i]:], nb[keep:])
		}
		if len(tail) > 0 {
			store, err := nvm.BuildStack(nvm.StackSpec{
				Name:       fmt.Sprintf("bwd-node%d-tail%s", k, opts.StoreSuffix),
				Chunk:      nvm.DefaultChunkSize,
				Base:       nvm.BaseFactory(mk),
				Checksum:   opts.Checksums,
				Replicas:   replicas,
				Mirror:     opts.Mirror,
				Cache:      opts.Cache,
				QueueDepth: opts.QueueDepth,
				BaseChunk:  AggregatedChunk,
				Retry:      opts.Retry,
			})
			if err != nil {
				return fail(err)
			}
			created = append(created, store)
			if opts.Compress {
				// Encode each vertex's tail against its own (global)
				// vertex ID, back to back, with a byte index alongside
				// the element-count index.
				node.TailByteIndex = make([]int64, g.Len+1)
				var encoded []byte
				for i := int64(0); i < g.Len; i++ {
					tl, th := node.TailIndex[i], node.TailIndex[i+1]
					if th > tl {
						encoded = enc.AppendList(encoded, g.Base+i, tail[tl:th])
					}
					node.TailByteIndex[i+1] = int64(len(encoded))
				}
				if err := writeBytes(store, clock, encoded); err != nil {
					return fail(fmt.Errorf("semiext: offload backward tail node %d: %w", k, err))
				}
			} else if err := writeInt64s(store, clock, tail); err != nil {
				return fail(fmt.Errorf("semiext: offload backward tail node %d: %w", k, err))
			}
			node.TailStore = store
		} else {
			node.TailIndex = nil
		}
		hb.PerNode[k] = node
	}
	return hb, nil
}

// BuildHybridBackward is OffloadBackward with only the DRAM edge limit
// set — the historical entry point, kept for its many call sites.
func BuildHybridBackward(bg *csr.BackwardGraph, limit int, mk StoreFactory, clock *vtime.Clock) (*HybridBackward, error) {
	return OffloadBackward(bg, mk, clock, BackwardOptions{KeepEdges: limit})
}

// Stacks returns every tail storage stack (nil-free; empty when the graph
// is fully DRAM-resident). The BFS engine walks these to collect
// per-layer statistics.
func (hb *HybridBackward) Stacks() []nvm.Storage {
	var out []nvm.Storage
	for _, n := range hb.PerNode {
		if n.TailStore != nil {
			out = append(out, n.TailStore)
		}
	}
	return out
}

// LayerStats collects the per-layer counters of every tail stack.
func (hb *HybridBackward) LayerStats() nvm.StackStats {
	return nvm.CollectStacks(hb.Stacks()...)
}

// DRAMBytes returns the graph's DRAM-resident footprint.
func (hb *HybridBackward) DRAMBytes() int64 {
	var b int64
	for _, n := range hb.PerNode {
		b += int64(len(n.DRAMIndex))*8 + int64(len(n.DRAMValue))*8 +
			int64(len(n.TailIndex))*8 + int64(len(n.TailByteIndex))*8
	}
	return b
}

// NVMBytes returns the bytes offloaded to NVM, counting every mirror
// replica's physical copy.
func (hb *HybridBackward) NVMBytes() int64 {
	var b int64
	for _, st := range hb.Stacks() {
		b += nvm.StackPhysicalBytes(st)
	}
	return b
}

// DRAMEdges returns the number of neighbor entries resident in DRAM.
func (hb *HybridBackward) DRAMEdges() int64 {
	var e int64
	for _, n := range hb.PerNode {
		e += int64(len(n.DRAMValue))
	}
	return e
}

// TailEdges returns the number of neighbor entries offloaded to NVM.
func (hb *HybridBackward) TailEdges() int64 {
	var e int64
	for _, n := range hb.PerNode {
		if n.TailIndex != nil {
			e += n.TailIndex[n.Len]
		}
	}
	return e
}

// Close closes all tail stacks.
func (hb *HybridBackward) Close() error {
	var first error
	for _, n := range hb.PerNode {
		if n.TailStore != nil {
			if err := n.TailStore.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// BackwardScanner is a per-worker cursor over a HybridBackward graph. It
// owns scratch buffers and per-worker access counters; device time goes to
// the owning worker's clock. Resilience lives in the tail stores' stacks.
type BackwardScanner struct {
	hb      *HybridBackward
	clock   *vtime.Clock
	byteBuf []byte
	valBuf  []int64
	// DRAMEdgesScanned / NVMEdgesScanned count neighbor entries
	// examined from each tier — the quantities behind Figure 14's
	// access ratio.
	DRAMEdgesScanned int64
	NVMEdgesScanned  int64
	// TailFetches counts vertices whose tail had to be streamed in.
	TailFetches int64
}

// NewBackwardScanner returns a scanner charging device time to clock.
func NewBackwardScanner(hb *HybridBackward, clock *vtime.Clock) *BackwardScanner {
	return &BackwardScanner{
		hb:      hb,
		clock:   clock,
		byteBuf: make([]byte, nvm.DefaultChunkSize),
	}
}

// Scan streams vertex v's neighbors — DRAM prefix first, then the NVM
// tail — through fn until fn returns false (parent found) or the list is
// exhausted. It returns the number of neighbors examined. Tail neighbors
// are streamed chunk-by-chunk, so an early hit inside the first tail chunk
// avoids reading the rest.
func (s *BackwardScanner) Scan(k int, v int64, fn func(nb int64) bool) (examined int64, err error) {
	node := s.hb.PerNode[k]
	i := v - node.Base
	var delta vertexDelta
	if o := s.hb.overlay; o != nil {
		delta = o.delta(v)
	}
	prefix := node.DRAMValue[node.DRAMIndex[i]:node.DRAMIndex[i+1]]
	for _, nb := range prefix {
		if deleted(delta.dels, nb) {
			// The DRAM entry was still examined; it just no longer exists
			// in the merged adjacency.
			s.DRAMEdgesScanned++
			continue
		}
		examined++
		s.DRAMEdgesScanned++
		if !fn(nb) {
			return examined, nil
		}
	}
	hasTail := node.TailIndex != nil && node.TailIndex[i] < node.TailIndex[i+1]
	if hasTail {
		tailLo, tailHi := node.TailIndex[i], node.TailIndex[i+1]
		s.TailFetches++
		// Stream the tail through the shared raw/compressed helper in
		// chunks of at most 4 KiB, so an early parent hit in the first
		// chunk never pays for the rest of the tail. Only the deletion
		// half of the delta rides along: pending adds are DRAM-resident
		// and are emitted below with DRAM accounting.
		lo, hi := tailLo, tailHi
		compress := s.hb.Options.Compress
		if compress {
			lo, hi = node.TailByteIndex[i], node.TailByteIndex[i+1]
		}
		// The stream counts the neighbors fn saw, so fn is passed through
		// unwrapped; only pending adds (below) need to know it stopped.
		stopped := false
		tailFn := fn
		if len(delta.adds) > 0 {
			tailFn = func(nb int64) bool {
				stopped = !fn(nb)
				return !stopped
			}
		}
		n, err := streamNeighbors(node.TailStore, s.clock, compress, v, lo, hi,
			&s.byteBuf, &s.valBuf, nvm.DefaultChunkSize, nil, delta.dels, tailFn)
		examined += n
		s.NVMEdgesScanned += n
		if err != nil || stopped {
			return examined, err
		}
	}
	for _, nb := range delta.adds {
		examined++
		s.DRAMEdgesScanned++
		if !fn(nb) {
			return examined, nil
		}
	}
	return examined, nil
}

// Degree returns the full degree of global vertex v in the merged view
// (stored adjacency plus any pending overlay edits).
func (hb *HybridBackward) Degree(v int64) int64 {
	d := hb.PerNode[hb.Part.NodeOf(int(v))].Degree(v)
	if hb.overlay != nil {
		d += hb.overlay.DegreeDelta(v)
	}
	return d
}

// Package dyn makes the offloaded semi-external graph dynamic and
// durable: edge insertions and deletions are logged to a checksummed
// write-ahead log on NVM, applied to DRAM delta overlays that the
// semiext read paths merge at stream time, and periodically folded into
// a fresh CSR generation by a crash-consistent, log-structured
// compaction (shadow generation stores + an atomic manifest flip).
//
// Durability contract:
//
//   - An update batch is durable exactly when its WAL record is fully
//     on media. A power cut during the append tears the record; replay
//     stops at the torn frame and the batch is simply not applied —
//     the caller saw the Apply error and knows the batch was lost.
//   - Compaction writes generation g+1's stores under fresh names
//     (".g<g+1>" suffix) while generation g keeps serving. The single
//     atomic flip is one manifest record {gen, walMark}: before it the
//     recovery reads generation g and replays the full WAL; a torn
//     flip record is discarded (same framing as the WAL) which also
//     lands on generation g; after it recovery reads g+1 and skips the
//     folded records via the walMark watermark.
//   - Recovery is deterministic and runs in virtual time: the forward
//     generation stores are reopened in place, the backward graph is
//     rebuilt from the forward adjacency (the CSR builders are
//     deterministic, so the rewritten tail stores are bit-identical to
//     what compaction wrote), and the WAL suffix is replayed into
//     fresh overlays.
package dyn

import (
	"encoding/binary"
	"fmt"
	"sync"

	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// Update is one undirected edge mutation.
type Update struct {
	U, V int64
	Del  bool
}

// Options configure a dynamic graph.
type Options struct {
	// Forward / Backward configure the offloaded graphs. StoreSuffix is
	// owned by this package (generations overwrite it).
	Forward  semiext.ForwardOptions
	Backward semiext.BackwardOptions
}

// Stats counts a dynamic graph's update activity.
type Stats struct {
	// Applied counts updates accepted into the overlay; SkippedInserts /
	// SkippedDeletes count validated-away no-ops (edge already present /
	// already absent).
	Applied        int64
	SkippedInserts int64
	SkippedDeletes int64
	// Batches counts successful Apply calls; Compactions successful
	// Compact calls.
	Batches     int64
	Compactions int64
	// WALAppends / WALBytes mirror the live WAL's counters.
	WALAppends int64
	WALBytes   int64
}

// Graph is a durable dynamic semi-external graph: the current CSR
// generation (forward + backward), the DRAM overlays holding pending
// edits, the WAL they are logged to, and the generation manifest.
//
// Mutations (Apply, Compact) are serialized by an internal lock; readers
// go through the semiext handles and overlay snapshots and may run
// concurrently with mutations (the serve layer applies updates between
// BFS sweeps).
type Graph struct {
	Part *numa.Partition

	mu       sync.Mutex
	mk       semiext.StoreFactory
	opts     Options
	sf       *semiext.SemiForward
	hb       *semiext.HybridBackward
	fo, bo   *semiext.DeltaOverlay
	wal      *nvm.WALStore
	manifest *nvm.WALStore
	gen      uint64
	walMark  uint64
	// qr validates Apply's updates; it charges qrClock, the clock of the
	// Apply that opened it.
	qr      *semiext.ForwardReader
	qrClock *vtime.Clock
	stats   Stats
}

const (
	walName      = "dyn-wal"
	manifestName = "dyn-manifest"
	updateBytes  = 17 // u(8) v(8) del(1)
)

// genSuffix is the store-name suffix of generation g.
func genSuffix(g uint64) string { return fmt.Sprintf(".g%d", g) }

// Build constructs generation 0 from src and offloads it through mk,
// charging device time to clock. The WAL and manifest start empty.
func Build(src edgelist.Source, part *numa.Partition, mk semiext.StoreFactory, clock *vtime.Clock, opts Options) (*Graph, error) {
	g := &Graph{Part: part, mk: mk, opts: opts}
	if err := g.openLogs(clock, nil); err != nil {
		return nil, err
	}
	fo, bo := opts.Forward, opts.Backward
	fo.StoreSuffix, bo.StoreSuffix = genSuffix(0), genSuffix(0)
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		g.closeLogs()
		return nil, err
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		g.closeLogs()
		return nil, err
	}
	sf, err := semiext.OffloadForward(fg, mk, clock, fo)
	if err != nil {
		g.closeLogs()
		return nil, err
	}
	bo.Cache = sf.Cache() // tails share the forward graph's page cache, as in core.Build
	hb, err := semiext.OffloadBackward(bg, mk, clock, bo)
	if err != nil {
		sf.Close()
		g.closeLogs()
		return nil, err
	}
	g.install(sf, hb)
	return g, nil
}

// openManifest opens the generation manifest over mk and reads the live
// {gen, walMark} out of it (last valid record wins; empty manifest means
// generation 0, nothing folded).
func (g *Graph) openManifest(clock *vtime.Clock) error {
	mst, err := g.mk(manifestName, nvm.DefaultChunkSize)
	if err != nil {
		return err
	}
	g.manifest, err = nvm.OpenWALStore(manifestName, mst, clock, 0, func(_ uint64, payload []byte) error {
		if len(payload) == 16 {
			g.gen = binary.LittleEndian.Uint64(payload[0:8])
			g.walMark = binary.LittleEndian.Uint64(payload[8:16])
		}
		return nil
	})
	if err != nil {
		mst.Close()
	}
	return err
}

// openWAL opens the update WAL over mk, streaming every record past the
// manifest's watermark through replay (nil skips replay). The manifest
// must be open first.
func (g *Graph) openWAL(clock *vtime.Clock, replay func(seq uint64, payload []byte) error) error {
	wst, err := g.mk(walName, nvm.DefaultChunkSize)
	if err != nil {
		return err
	}
	if replay == nil {
		replay = func(uint64, []byte) error { return nil }
	}
	g.wal, err = nvm.OpenWALStore(walName, wst, clock, g.walMark, replay)
	if err != nil {
		wst.Close()
	}
	return err
}

// openLogs opens the manifest then the WAL, with no replay.
func (g *Graph) openLogs(clock *vtime.Clock, replay func(seq uint64, payload []byte) error) error {
	if err := g.openManifest(clock); err != nil {
		return err
	}
	if err := g.openWAL(clock, replay); err != nil {
		g.manifest.Close()
		g.manifest = nil
		return err
	}
	return nil
}

func (g *Graph) closeLogs() {
	if g.wal != nil {
		g.wal.Close()
	}
	if g.manifest != nil {
		g.manifest.Close()
	}
}

// install swaps in a generation's graph handles with fresh overlays.
func (g *Graph) install(sf *semiext.SemiForward, hb *semiext.HybridBackward) {
	g.sf, g.hb = sf, hb
	g.fo, g.bo = semiext.NewDeltaOverlay(), semiext.NewDeltaOverlay()
	sf.SetOverlay(g.fo)
	hb.SetOverlay(g.bo)
	g.qr = nil
}

// Forward returns the live forward graph handle (current generation,
// overlay attached).
func (g *Graph) Forward() *semiext.SemiForward { return g.sf }

// Backward returns the live backward graph handle.
func (g *Graph) Backward() *semiext.HybridBackward { return g.hb }

// Generation returns the live CSR generation number.
func (g *Graph) Generation() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// Stats returns a snapshot of the update counters.
func (g *Graph) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	ws := g.wal.Stats()
	st.WALAppends, st.WALBytes = ws.Appends, ws.AppendedBytes
	return st
}

// PendingEdits returns the overlay's pending (insertions, deletions),
// counted on the backward (per-vertex-pair doubled) overlay.
func (g *Graph) PendingEdits() (adds, dels int64) {
	return g.bo.Counts()
}

// hasEdge reports whether undirected edge (u, v) exists in the merged
// view, charging the read to clock. Must be called under g.mu (uses the
// shared query reader).
func (g *Graph) hasEdge(clock *vtime.Clock, u, v int64) (bool, error) {
	if g.qr == nil || g.qrClock != clock {
		g.qr, g.qrClock = semiext.NewForwardReader(g.sf, clock), clock
	}
	found := false
	nbs, err := g.qr.Neighbors(g.Part.NodeOf(int(v)), u)
	if err != nil {
		return false, err
	}
	for _, nb := range nbs {
		if nb == v {
			found = true
			break
		}
	}
	return found, nil
}

// Apply validates batch against the merged adjacency, logs the surviving
// updates as one WAL record, and applies them to the overlays. Inserts
// of present edges and deletes of absent edges are dropped (counted in
// Stats). The batch is durable — and applied — only if the WAL append
// succeeds; on error (e.g. a power cut mid-append) no update from the
// batch is visible.
//
// Returns the number of updates applied.
func (g *Graph) Apply(clock *vtime.Clock, batch []Update) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	// Validate in order, tracking the batch's own effects so a later
	// update sees the earlier ones.
	pending := make(map[[2]int64]bool) // normalized edge -> exists after pending updates
	kept := batch[:0:0]
	for _, up := range batch {
		if up.U == up.V {
			continue // self-loops are never stored
		}
		key := [2]int64{up.U, up.V}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		exists, seen := pending[key]
		if !seen {
			var err error
			exists, err = g.hasEdge(clock, up.U, up.V)
			if err != nil {
				return 0, err
			}
		}
		if up.Del != exists {
			if up.Del {
				g.stats.SkippedDeletes++
			} else {
				g.stats.SkippedInserts++
			}
			continue
		}
		pending[key] = !up.Del
		kept = append(kept, up)
	}
	if len(kept) == 0 {
		g.stats.Batches++
		return 0, nil
	}

	payload := make([]byte, 0, len(kept)*updateBytes)
	for _, up := range kept {
		payload = appendUpdate(payload, up)
	}
	if _, err := g.wal.Append(clock, payload); err != nil {
		return 0, fmt.Errorf("dyn: wal append: %w", err)
	}
	for _, up := range kept {
		g.applyToOverlays(up)
	}
	g.stats.Applied += int64(len(kept))
	g.stats.Batches++
	return len(kept), nil
}

// applyToOverlays lands one validated update in both overlays, in both
// directions.
func (g *Graph) applyToOverlays(up Update) {
	for _, e := range [2][2]int64{{up.U, up.V}, {up.V, up.U}} {
		a, b := e[0], e[1]
		fslot := g.sf.OverlaySlot(g.Part.NodeOf(int(b)), a)
		if up.Del {
			g.fo.Delete(fslot, b)
			g.bo.Delete(a, b)
		} else {
			g.fo.Insert(fslot, b)
			g.bo.Insert(a, b)
		}
	}
}

func appendUpdate(p []byte, up Update) []byte {
	var tmp [updateBytes]byte
	binary.LittleEndian.PutUint64(tmp[0:8], uint64(up.U))
	binary.LittleEndian.PutUint64(tmp[8:16], uint64(up.V))
	if up.Del {
		tmp[16] = 1
	}
	return append(p, tmp[:]...)
}

// decodeBatch decodes one WAL record back into updates.
func decodeBatch(payload []byte) ([]Update, error) {
	if len(payload)%updateBytes != 0 {
		return nil, fmt.Errorf("dyn: wal record length %d not a multiple of %d", len(payload), updateBytes)
	}
	out := make([]Update, 0, len(payload)/updateBytes)
	for off := 0; off < len(payload); off += updateBytes {
		out = append(out, Update{
			U:   int64(binary.LittleEndian.Uint64(payload[off : off+8])),
			V:   int64(binary.LittleEndian.Uint64(payload[off+8 : off+16])),
			Del: payload[off+16] != 0,
		})
	}
	return out, nil
}

// mergedEdges materializes the merged adjacency (stored CSR + overlay) as
// an edge list, reading every vertex through the live forward stacks
// (overlay attached, so pending edits are folded in). Must be called
// under g.mu.
func (g *Graph) mergedEdges(clock *vtime.Clock) (*edgelist.List, error) {
	// The merged degree total, from counts already in DRAM: the stored
	// entries plus the backward overlay's net edits, each undirected edge
	// counted at both endpoints.
	adds, dels := g.bo.Counts()
	return transposeForward(g.sf, g.Part, clock, (g.sf.ValueBytesRaw/8+adds-dels)/2)
}

// Compact folds the overlay into a new CSR generation: it reads the
// merged adjacency, builds and offloads generation gen+1 under shadow
// store names, and flips to it with a single manifest record. A crash at
// any point leaves a consistent state — before the flip recovery sees
// the old generation plus the full WAL; after it, the new generation
// with the folded records skipped by watermark.
func (g *Graph) Compact(clock *vtime.Clock) error {
	g.mu.Lock()
	defer g.mu.Unlock()

	list, err := g.mergedEdges(clock)
	if err != nil {
		return fmt.Errorf("dyn: compact read: %w", err)
	}
	src := edgelist.ListSource{List: list}
	newGen := g.gen + 1
	fo, bo := g.opts.Forward, g.opts.Backward
	fo.StoreSuffix, bo.StoreSuffix = genSuffix(newGen), genSuffix(newGen)
	fg, err := csr.BuildForward(src, g.Part)
	if err != nil {
		return err
	}
	bg, err := csr.BuildBackward(src, g.Part, csr.SortByDegreeDesc)
	if err != nil {
		return err
	}
	sf, err := semiext.OffloadForward(fg, g.mk, clock, fo)
	if err != nil {
		return fmt.Errorf("dyn: compact offload forward: %w", err)
	}
	bo.Cache = sf.Cache()
	hb, err := semiext.OffloadBackward(bg, g.mk, clock, bo)
	if err != nil {
		sf.Close()
		return fmt.Errorf("dyn: compact offload backward: %w", err)
	}

	// The atomic flip: one manifest record naming the new generation and
	// the WAL position it folded. Torn or unwritten -> old generation.
	folded := g.wal.LastSeq()
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:8], newGen)
	binary.LittleEndian.PutUint64(rec[8:16], folded)
	if _, err := g.manifest.Append(clock, rec[:]); err != nil {
		sf.Close()
		hb.Close()
		return fmt.Errorf("dyn: compact flip: %w", err)
	}

	// Flipped: retire the old generation handles and truncate the WAL
	// (its records are folded; sequence numbers keep increasing so the
	// watermark stays monotonic). A failure past the flip leaves the new
	// generation live — recovery handles the rest.
	g.sf.Close()
	g.hb.Close()
	g.install(sf, hb)
	g.gen, g.walMark = newGen, folded
	g.stats.Compactions++
	if err := g.wal.Reset(clock); err != nil {
		return fmt.Errorf("dyn: compact wal reset: %w", err)
	}
	return nil
}

// Close closes the graph handles and logs.
func (g *Graph) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	if g.sf != nil {
		if err := g.sf.Close(); err != nil && first == nil {
			first = err
		}
	}
	if g.hb != nil {
		if err := g.hb.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := g.wal.Close(); err != nil && first == nil {
		first = err
	}
	if err := g.manifest.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

package semiext

import "sync"

// DeltaOverlay is the DRAM edge-delta overlay that makes an offloaded
// graph dynamic without rewriting its NVM-resident CSR: insertions and
// deletions accumulate here (after being logged to the WAL by the
// orchestrating layer) and the read paths merge them into the stored
// adjacency at stream time. A compaction folds the overlay into a new CSR
// generation and clears it.
//
// The overlay is keyed by an opaque int64 slot chosen by the graph handle
// it is attached to: the forward graph partitions each vertex's neighbors
// by owner node, so it keys by (vertex, node) — see
// SemiForward.OverlaySlot — while the backward graph keys by vertex alone.
// Callers therefore attach one overlay per graph handle, not one shared
// overlay.
//
// Callers must keep the overlay consistent with the merged adjacency:
// Insert only edges absent from the merged view and Delete only edges
// present in it (dyn.Graph validates this before applying a batch). Under
// that contract a slot's pending adds are always disjoint from its live
// stored neighbors, which is what lets the sorted stream merge use a
// strict comparison. The stored CSR may hold duplicate edges (Graph500
// construction keeps them); a deletion suppresses every stored copy, so
// "delete (u, v)" always means the edge is gone from the merged view.
//
// Mutations are copy-on-write per slot: a snapshot handed out by delta()
// is immutable, so readers racing a concurrent Insert/Delete (e.g. a
// serve-layer update landing between BFS sweeps) see either the old or
// the new version of a slot, never a torn one.
type DeltaOverlay struct {
	mu   sync.RWMutex
	adds map[int64][]int64
	dels map[int64]map[int64]struct{}
	addN int64
	delN int64
}

// NewDeltaOverlay returns an empty overlay.
func NewDeltaOverlay() *DeltaOverlay {
	return &DeltaOverlay{
		adds: make(map[int64][]int64),
		dels: make(map[int64]map[int64]struct{}),
	}
}

// Insert records neighbor nb as added under slot. If nb was pending
// deletion the two annihilate (the stored edge simply stops being
// suppressed); otherwise nb joins the slot's sorted add list.
func (o *DeltaOverlay) Insert(slot, nb int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if dels := o.dels[slot]; dels != nil {
		if _, ok := dels[nb]; ok {
			// Re-inserting a deleted stored edge: unmark the deletion
			// (copy-on-write, snapshots in reader hands stay intact).
			next := make(map[int64]struct{}, len(dels)-1)
			for v := range dels {
				if v != nb {
					next[v] = struct{}{}
				}
			}
			if len(next) == 0 {
				delete(o.dels, slot)
			} else {
				o.dels[slot] = next
			}
			o.delN--
			return
		}
	}
	old := o.adds[slot]
	pos := 0
	for pos < len(old) && old[pos] < nb {
		pos++
	}
	if pos < len(old) && old[pos] == nb {
		return // duplicate insert, contract violation tolerated as no-op
	}
	next := make([]int64, 0, len(old)+1)
	next = append(next, old[:pos]...)
	next = append(next, nb)
	next = append(next, old[pos:]...)
	o.adds[slot] = next
	o.addN++
}

// Delete records neighbor nb as removed under slot. If nb was a pending
// add the two annihilate; otherwise nb is marked deleted so the read
// paths suppress the stored edge.
func (o *DeltaOverlay) Delete(slot, nb int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if old := o.adds[slot]; len(old) > 0 {
		pos := 0
		for pos < len(old) && old[pos] < nb {
			pos++
		}
		if pos < len(old) && old[pos] == nb {
			next := make([]int64, 0, len(old)-1)
			next = append(next, old[:pos]...)
			next = append(next, old[pos+1:]...)
			if len(next) == 0 {
				delete(o.adds, slot)
			} else {
				o.adds[slot] = next
			}
			o.addN--
			return
		}
	}
	old := o.dels[slot]
	if _, ok := old[nb]; ok {
		return // duplicate delete, contract violation tolerated as no-op
	}
	next := make(map[int64]struct{}, len(old)+1)
	for v := range old {
		next[v] = struct{}{}
	}
	next[nb] = struct{}{}
	o.dels[slot] = next
	o.delN++
}

// vertexDelta is an immutable snapshot of one slot's pending edits: adds
// is sorted ascending, dels is the set of stored neighbors to suppress.
// sorted selects the merge discipline — true interleaves adds into an
// ascending base stream (forward adjacencies), false appends them after
// the base is exhausted (backward tails keep degree-descending order, so
// there is no shared order to merge into).
type vertexDelta struct {
	adds   []int64
	dels   map[int64]struct{}
	sorted bool
}

// deleted reports whether stored neighbor nb is suppressed.
func (d *vertexDelta) deleted(nb int64) bool {
	if d == nil || d.dels == nil {
		return false
	}
	_, ok := d.dels[nb]
	return ok
}

// delta snapshots slot's pending edits, or nil when the slot is clean.
// The snapshot aliases the overlay's copy-on-write internals and stays
// valid (and immutable) across concurrent mutations.
func (o *DeltaOverlay) delta(slot int64, sorted bool) *vertexDelta {
	o.mu.RLock()
	adds, dels := o.adds[slot], o.dels[slot]
	o.mu.RUnlock()
	if adds == nil && dels == nil {
		return nil
	}
	return &vertexDelta{adds: adds, dels: dels, sorted: sorted}
}

// Adds returns slot's pending insertions, sorted ascending (nil when
// none). The slice is an immutable snapshot.
func (o *DeltaOverlay) Adds(slot int64) []int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.adds[slot]
}

// IsDeleted reports whether (slot, nb) is pending deletion.
func (o *DeltaOverlay) IsDeleted(slot, nb int64) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.dels[slot][nb]
	return ok
}

// DegreeDelta returns the slot's net degree change (adds minus dels).
func (o *DeltaOverlay) DegreeDelta(slot int64) int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return int64(len(o.adds[slot])) - int64(len(o.dels[slot]))
}

// Counts returns the overlay-wide pending (insertions, deletions).
func (o *DeltaOverlay) Counts() (adds, dels int64) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.addN, o.delN
}

// Empty reports whether no edits are pending.
func (o *DeltaOverlay) Empty() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.addN == 0 && o.delN == 0
}

// Clear drops every pending edit (called after a compaction folds the
// overlay into a new CSR generation).
func (o *DeltaOverlay) Clear() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.adds = make(map[int64][]int64)
	o.dels = make(map[int64]map[int64]struct{})
	o.addN, o.delN = 0, 0
}

// ForEach streams every pending edit as (slot, nb, del) triples. The
// iteration order is unspecified.
func (o *DeltaOverlay) ForEach(fn func(slot, nb int64, del bool)) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for slot, adds := range o.adds {
		for _, nb := range adds {
			fn(slot, nb, false)
		}
	}
	for slot, dels := range o.dels {
		for nb := range dels {
			fn(slot, nb, true)
		}
	}
}

package semiext

import "slices"

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
// Mutations are copy-on-write per slot: each builds the slot's next
// snapshot and stores it in place of the old one, whose slices it never
// writes, so a slice Adds returned stays unchanged while its holder reads
// it, whatever Insert or Delete lands on the slot meanwhile. Slots are
// non-negative, and a dense bitmap beside the map marks the dirty ones, so
// a read of a clean slot is one bit test and only a dirty slot's read
// looks the map up; neither allocates. The bitmap grows by doubling and
// Clear keeps its capacity, so steady-state updates allocate only the
// slot snapshots. Like the storage stack under it, an overlay is used by
// one goroutine at a time.
type DeltaOverlay struct {
	slots map[int64]vertexDelta
	dirty []uint64 // bit slot set iff slots holds slot
	addN  int64
	delN  int64
}

// vertexDelta is an immutable snapshot of one slot's pending edits, both
// sorted ascending: adds are neighbors the merged view gains, dels stored
// neighbors it suppresses. The zero value is a clean slot.
type vertexDelta struct {
	adds []int64
	dels []int64
}

// NewDeltaOverlay returns an empty overlay.
func NewDeltaOverlay() *DeltaOverlay {
	return &DeltaOverlay{slots: make(map[int64]vertexDelta)}
}

// Insert records neighbor nb as added under slot. If nb was pending
// deletion the two annihilate (the stored edge simply stops being
// suppressed); otherwise nb joins the slot's sorted add list.
func (o *DeltaOverlay) Insert(slot, nb int64) {
	d := o.slots[slot]
	if i, ok := slices.BinarySearch(d.dels, nb); ok {
		d.dels = removed(d.dels, i)
		o.delN--
	} else {
		i, ok := slices.BinarySearch(d.adds, nb)
		if ok {
			return // duplicate insert, contract violation tolerated as no-op
		}
		d.adds = inserted(d.adds, i, nb)
		o.addN++
	}
	o.store(slot, d)
}

// Delete records neighbor nb as removed under slot. If nb was a pending
// add the two annihilate; otherwise nb is marked deleted so the read
// paths suppress the stored edge.
func (o *DeltaOverlay) Delete(slot, nb int64) {
	d := o.slots[slot]
	if i, ok := slices.BinarySearch(d.adds, nb); ok {
		d.adds = removed(d.adds, i)
		o.addN--
	} else {
		i, ok := slices.BinarySearch(d.dels, nb)
		if ok {
			return // duplicate delete, contract violation tolerated as no-op
		}
		d.dels = inserted(d.dels, i, nb)
		o.delN++
	}
	o.store(slot, d)
}

// store makes d slot's snapshot, dropping the slot once it is clean.
func (o *DeltaOverlay) store(slot int64, d vertexDelta) {
	if slot < 0 {
		panic("semiext: negative overlay slot")
	}
	w, bit := slot>>6, uint64(1)<<(slot&63)
	if len(d.adds) == 0 && len(d.dels) == 0 {
		delete(o.slots, slot)
		if w < int64(len(o.dirty)) {
			o.dirty[w] &^= bit
		}
		return
	}
	if w >= int64(len(o.dirty)) {
		grown := make([]uint64, max(2*len(o.dirty), int(w)+1))
		copy(grown, o.dirty)
		o.dirty = grown
	}
	o.dirty[w] |= bit
	o.slots[slot] = d
}

// inserted returns a copy of s with x at index i.
func inserted(s []int64, i int, x int64) []int64 {
	out := make([]int64, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// removed returns a copy of s without s[i], nil when nothing is left.
func removed(s []int64, i int) []int64 {
	if len(s) == 1 {
		return nil
	}
	out := make([]int64, 0, len(s)-1)
	return append(append(out, s[:i]...), s[i+1:]...)
}

// deleted reports whether stored neighbor nb is in dels, a snapshot's
// sorted suppression list.
func deleted(dels []int64, nb int64) bool {
	if len(dels) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(dels, nb)
	return ok
}

// delta returns slot's snapshot, the zero value when the slot is clean or
// the overlay nil. It stays valid (and immutable) across later mutations.
func (o *DeltaOverlay) delta(slot int64) vertexDelta {
	if !o.isDirty(slot) {
		return vertexDelta{}
	}
	return o.slots[slot]
}

// isDirty reports whether slot has pending edits: one bit test, false on
// a nil overlay.
func (o *DeltaOverlay) isDirty(slot int64) bool {
	if o == nil {
		return false
	}
	w := uint64(slot) >> 6
	return w < uint64(len(o.dirty)) && o.dirty[w]&(1<<(slot&63)) != 0
}

// dirtyWord returns word wi of the dirty bitmap (slots 64·wi to
// 64·wi+63): 0 past its end or on a nil overlay.
func (o *DeltaOverlay) dirtyWord(wi int) uint64 {
	if o == nil || uint(wi) >= uint(len(o.dirty)) {
		return 0
	}
	return o.dirty[wi]
}

// Adds returns slot's pending insertions, sorted ascending (nil when
// none). The slice is an immutable snapshot.
func (o *DeltaOverlay) Adds(slot int64) []int64 {
	return o.delta(slot).adds
}

// IsDeleted reports whether (slot, nb) is pending deletion.
func (o *DeltaOverlay) IsDeleted(slot, nb int64) bool {
	return deleted(o.delta(slot).dels, nb)
}

// DegreeDelta returns the slot's net degree change (adds minus dels).
func (o *DeltaOverlay) DegreeDelta(slot int64) int64 {
	d := o.delta(slot)
	return int64(len(d.adds)) - int64(len(d.dels))
}

// Counts returns the overlay-wide pending (insertions, deletions).
func (o *DeltaOverlay) Counts() (adds, dels int64) { return o.addN, o.delN }

// Empty reports whether no edits are pending.
func (o *DeltaOverlay) Empty() bool { return o.addN == 0 && o.delN == 0 }

// Clear drops every pending edit (called after a compaction folds the
// overlay into a new CSR generation). The map and the dirty bitmap keep
// their storage.
func (o *DeltaOverlay) Clear() {
	clear(o.slots)
	clear(o.dirty)
	o.addN, o.delN = 0, 0
}

// ForEach streams every pending edit as (slot, nb, del) triples. The
// iteration order is unspecified.
func (o *DeltaOverlay) ForEach(fn func(slot, nb int64, del bool)) {
	for slot, d := range o.slots {
		for _, nb := range d.adds {
			fn(slot, nb, false)
		}
		for _, nb := range d.dels {
			fn(slot, nb, true)
		}
	}
}

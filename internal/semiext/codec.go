package semiext

import (
	"fmt"

	"semibfs/internal/enc"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// This file is the single place where the raw and compressed on-NVM
// neighbor formats meet the readers. Both the forward reader and the
// backward tail scanner stream through streamNeighbors, so the
// delta+varint path is wired in exactly once.

// chargeDecode advances clock by the modeled CPU cost of decoding n
// encoded bytes, using the backing device's profile (decode is host work,
// so it lands on the worker's clock, not the device queue).
func chargeDecode(store nvm.Storage, clock *vtime.Clock, n int64) {
	if clock == nil || n <= 0 {
		return
	}
	var p nvm.Profile
	if dev := store.Device(); dev != nil {
		p = dev.Profile()
	}
	clock.Advance(p.DecodeTime(int(n)))
}

// growBytes returns *buf resized to hold n bytes, growing the backing
// array only when needed so steady-state reads never allocate.
func growBytes(buf *[]byte, n int64) []byte {
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// streamNeighbors streams one vertex's neighbor range [lo, hi) of store
// through fn until fn returns false (early exit) or the range is
// exhausted, returning the number of neighbors emitted.
//
// When compressed is false the range is element offsets of little-endian
// int64 IDs; when true it is *byte* offsets of one delta+varint block
// (enc package) owned by source vertex src, and the decode cost of every
// consumed byte is charged to clock. Reads happen in chunks of at most
// chunkBytes (<= 0 selects nvm.DefaultChunkSize), so an early exit in the
// first chunk never pays for the rest of a long tail; partial varints at
// a chunk boundary are carried into the next read.
//
// A slot's pending edits are merged into the stored stream at read time:
// neighbors in dels never reach fn, adds (sorted ascending) are
// interleaved into the stream — which must then be ascending too, as
// forward adjacencies are — with the ones past its end emitted after it,
// and examined counts the merged view fn actually saw. An early exit skips
// the remaining adds, exactly as it skips the remaining stored tail.
// Backward tails keep degree-descending order, so there is no order to
// merge into: their scanner passes dels only and emits the adds itself.
func streamNeighbors(store nvm.Storage, clock *vtime.Clock, compressed bool,
	src, lo, hi int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	adds, dels []int64, fn func(nb int64) bool) (examined int64, err error) {
	if len(adds) == 0 && len(dels) == 0 {
		return streamStored(store, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, fn)
	}
	ai := 0
	stopped := false
	merged := func(nb int64) bool {
		// Strict '<' is safe: the overlay contract keeps pending adds
		// disjoint from live stored neighbors.
		for ai < len(adds) && adds[ai] < nb {
			examined++
			if !fn(adds[ai]) {
				stopped = true
				return false
			}
			ai++
		}
		if deleted(dels, nb) {
			return true
		}
		examined++
		if !fn(nb) {
			stopped = true
			return false
		}
		return true
	}
	if _, err := streamStored(store, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, merged); err != nil {
		return examined, err
	}
	if stopped {
		return examined, nil
	}
	for ; ai < len(adds); ai++ {
		examined++
		if !fn(adds[ai]) {
			return examined, nil
		}
	}
	return examined, nil
}

// StreamNeighbors is the exported stored-only form of streamNeighbors:
// it streams the neighbor range [lo, hi) of store through fn until fn
// returns false or the range is exhausted, with no overlay applied. When
// compressed is false the range is element offsets of little-endian int64
// IDs; when true it is byte offsets of one delta+varint block (enc
// package) owned by source vertex src, with decode cost charged to clock.
// Reads happen in chunks of at most chunkBytes (<= 0 selects
// nvm.DefaultChunkSize) into *scratch / *ids, which are grown and reused
// across calls.
//
// It exists so every consumer of raw NVM adjacency bytes — the cluster
// simulation included — shares this package's decoder instead of
// hand-rolling the layout, and therefore works on compressed stores too.
func StreamNeighbors(store nvm.Storage, clock *vtime.Clock, compressed bool,
	src, lo, hi int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	fn func(nb int64) bool) (examined int64, err error) {
	return streamNeighbors(store, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, nil, nil, fn)
}

// streamStored is streamNeighbors' stored-only core: it streams exactly
// what the CSR holds, with no overlay applied.
func streamStored(store nvm.Storage, clock *vtime.Clock, compressed bool,
	src, lo, hi int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	fn func(nb int64) bool) (examined int64, err error) {
	if hi <= lo {
		return 0, nil
	}
	if chunkBytes <= 0 {
		chunkBytes = nvm.DefaultChunkSize
	}

	if !compressed {
		perChunk := int64(chunkBytes / 8)
		if perChunk < 1 {
			perChunk = 1
		}
		if int64(cap(*ids)) < perChunk {
			*ids = make([]int64, perChunk)
		}
		for off := lo; off < hi; {
			count := hi - off
			if count > perChunk {
				count = perChunk
			}
			chunk := (*ids)[:count]
			if err := readInt64s(store, clock, off, count, chunk, scratch); err != nil {
				return examined, err
			}
			for _, nb := range chunk {
				examined++
				if !fn(nb) {
					return examined, nil
				}
			}
			off += count
		}
		return examined, nil
	}

	// Compressed: decode the varint stream chunk by chunk. carried tracks
	// the partial varint left over from the previous chunk, kept at the
	// front of the scratch buffer. fn goes to the decoder as it is and the
	// decoder counts what it emitted: a counting wrapper here would be one
	// more call per edge.
	var dec enc.Decoder
	dec.Reset(src)
	carried := int64(0)
	stopped := false
	for off := lo; off < hi && !dec.Done() && !stopped; {
		n := int64(chunkBytes) - carried
		if n > hi-off {
			n = hi - off
		}
		buf := growBytes(scratch, carried+n)
		if err := store.ReadAt(clock, buf[carried:], off); err != nil {
			return dec.Emitted(), err
		}
		off += n
		var used int
		used, stopped, err = dec.Decode(buf, fn)
		if err != nil {
			return dec.Emitted(), err
		}
		chargeDecode(store, clock, int64(used))
		carried = int64(copy(buf, buf[used:]))
		if used == 0 && carried >= int64(chunkBytes) {
			// No progress with a full buffer: the stream cannot be valid.
			return dec.Emitted(), corruptStream(src, off)
		}
	}
	if !dec.Done() && !stopped {
		return dec.Emitted(), corruptStream(src, hi)
	}
	return dec.Emitted(), nil
}

// corruptStream reports a compressed block that ended mid-list.
func corruptStream(src, off int64) error {
	return &nvm.BlockError{
		Store: fmt.Sprintf("compressed adjacency of vertex %d", src),
		Block: off / nvm.DefaultChunkSize,
		Off:   off,
		Err:   nvm.ErrCorrupt,
	}
}

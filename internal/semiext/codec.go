package semiext

import (
	"fmt"

	"semibfs/internal/enc"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// This file is the single place where the raw and compressed on-NVM
// neighbor formats meet the streaming readers: the backward tail scanner
// and the cluster's indexed blocks stream through streamNeighbors /
// streamStored, so the chunked delta+varint path is wired in exactly once.
// The forward reader materializes whole lists with enc.DecodeList, the
// same decode loop, and shares chargeDecode.

// chargeDecode advances clock by the modeled CPU cost of decoding n
// encoded bytes, using the backing device's profile (decode is host work,
// so it lands on the worker's clock, not the device queue). dev is the
// store's Device, resolved once when the graph node or cluster block is
// built rather than walked down the stack per chunk: every replica of a
// mirrored stack is made by one factory over one profile, so the first
// live replica a failover lands on prices decode the same.
func chargeDecode(dev *nvm.Device, clock *vtime.Clock, n int64) {
	if clock == nil || n <= 0 {
		return
	}
	clock.Advance(dev.DecodeTime(int(n)))
}

// growBytes returns *buf resized to hold n bytes, growing the backing
// array only when needed so steady-state reads never allocate.
func growBytes(buf *[]byte, n int64) []byte {
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// streamNeighbors streams one vertex's stored neighbor range [lo, hi) of
// store to fn a batch at a time, until fn stops (early exit) or the range
// is exhausted, and returns how many neighbors fn examined. fn sees the
// neighbors in stored order, as slices it must neither keep nor modify,
// and returns how many of them it examined — all of them unless it stops,
// or through the one it stopped at.
//
// When compressed is false the range is element offsets of little-endian
// int64 IDs; when true it is *byte* offsets of one delta+varint block
// (enc package) owned by source vertex src, and the decode cost of every
// consumed byte is charged to clock, once per chunk, at the rate of dev,
// store's device (see chargeDecode). Reads happen in
// chunks of at most chunkBytes (<= 0 selects nvm.DefaultChunkSize), so an
// early exit in the first chunk never pays for the rest of a long tail;
// partial varints at a chunk boundary are carried into the next read.
// Raw IDs are read into *ids a chunk (chunkBytes/8) at a time; decoded
// ones are handed over in batches of at most cap(*ids). *ids is grown to a
// chunk when a raw read needs it or it is empty; a caller on a hot path
// sizes it when it is built.
//
// Stored neighbors in dels (a slot's pending deletions, sorted ascending)
// never reach fn: it is handed the runs between them. Pending adds are the
// caller's: the backward scanner emits them after the tail, the forward
// reader merges them into the list it returns (mergeDelta).
func streamNeighbors(store nvm.Storage, dev *nvm.Device, clock *vtime.Clock, compressed bool,
	src, lo, hi int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	dels []int64, fn func(nbs []int64) (int, bool)) (examined int64, err error) {
	if len(dels) == 0 {
		return streamStored(store, dev, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, fn)
	}
	_, err = streamStored(store, dev, clock, compressed, src, lo, hi, scratch, ids, chunkBytes,
		func(nbs []int64) (int, bool) {
			walked, e, stop := keptRuns(nbs, dels, fn)
			examined += int64(e)
			return walked, stop
		})
	return examined, err
}

// keptRuns hands fn the maximal runs of nbs that hold no neighbor in dels,
// in order, until fn stops. It returns how many entries of nbs it went
// through (deleted ones included, up to the one fn stopped at), how many
// fn examined, and whether fn stopped.
func keptRuns(nbs, dels []int64, fn func(nbs []int64) (int, bool)) (walked, examined int, stop bool) {
	if len(dels) == 0 && len(nbs) > 0 {
		e, stop := fn(nbs)
		if !stop {
			return len(nbs), e, false
		}
		return e, e, true
	}
	for a := 0; a < len(nbs); {
		if deleted(dels, nbs[a]) {
			a++
			continue
		}
		b := a + 1
		for b < len(nbs) && !deleted(dels, nbs[b]) {
			b++
		}
		e, stop := fn(nbs[a:b])
		examined += e
		if stop {
			return a + e, examined, true
		}
		a = b
	}
	return len(nbs), examined, false
}

// streamStored is streamNeighbors' stored-only core: it streams exactly
// what the CSR holds, with no overlay applied.
func streamStored(store nvm.Storage, dev *nvm.Device, clock *vtime.Clock, compressed bool,
	src, lo, hi int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	fn func(nbs []int64) (int, bool)) (examined int64, err error) {
	if hi <= lo {
		return 0, nil
	}
	if chunkBytes <= 0 {
		chunkBytes = nvm.DefaultChunkSize
	}
	perChunk := max(int64(chunkBytes/8), 1)
	if (!compressed && int64(cap(*ids)) < perChunk) || cap(*ids) == 0 {
		*ids = make([]int64, perChunk)
	}

	if !compressed {
		for off := lo; off < hi; {
			count := min(hi-off, perChunk)
			chunk := (*ids)[:count]
			if err := readInt64s(store, clock, off, count, chunk, scratch); err != nil {
				return examined, err
			}
			e, stop := fn(chunk)
			examined += int64(e)
			if stop {
				return examined, nil
			}
			off += count
		}
		return examined, nil
	}

	// Compressed: decode the varint stream chunk by chunk, a batch at a
	// time. carried tracks the partial varint left over from the previous
	// chunk, kept at the front of the scratch buffer. The decode charge is
	// one per chunk, for the bytes through the neighbor fn stopped at when
	// it stops: DecodeTime rounds per call, so a split charge would move
	// virtual time. Batches start at firstBatch neighbors and double up to
	// cap(*ids): a consumer that stops among the first neighbors — a
	// bottom-up scan that finds its parent — decodes little more than it
	// examines, and a gather still takes a long list in a few calls.
	var dec enc.Decoder
	dec.Reset(src)
	full := (*ids)[:cap(*ids)]
	size := min(firstBatch, len(full))
	carried := int64(0)
	for off := lo; off < hi && !dec.Done(); {
		n := min(int64(chunkBytes)-carried, hi-off)
		buf := growBytes(scratch, carried+n)
		if err := store.ReadAt(clock, buf[carried:], off); err != nil {
			return examined, err
		}
		off += n
		used := 0
		for {
			nbs, m, err := dec.Next(buf[used:], full[:size:size])
			if len(nbs) > 0 {
				e, stop := fn(nbs)
				examined += int64(e)
				if stop {
					chargeDecode(dev, clock, int64(used+dec.Through(buf[used:], e)))
					return examined, nil
				}
			}
			if err != nil {
				return examined, err
			}
			used += m
			if len(nbs) < size || dec.Done() {
				break
			}
			size = min(2*size, len(full))
		}
		chargeDecode(dev, clock, int64(used))
		carried = int64(copy(buf, buf[used:]))
		if used == 0 && carried >= int64(chunkBytes) {
			// No progress with a full buffer: the stream cannot be valid.
			return examined, corruptStream(src, off)
		}
	}
	if !dec.Done() {
		return examined, corruptStream(src, hi)
	}
	return examined, nil
}

// firstBatch is the size of a compressed stream's first decoded batch.
const firstBatch = 8

// corruptStream reports a compressed block that ended mid-list.
func corruptStream(src, off int64) error {
	return &nvm.BlockError{
		Store: fmt.Sprintf("compressed adjacency of vertex %d", src),
		Block: off / nvm.DefaultChunkSize,
		Off:   off,
		Err:   nvm.ErrCorrupt,
	}
}

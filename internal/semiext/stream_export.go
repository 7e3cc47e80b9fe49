package semiext

import (
	"encoding/binary"

	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// This file exports the store read/write glue that every consumer of
// on-NVM adjacency shares. The cluster simulation (1D and 2D layouts)
// used to hand-roll the same chunked writers and the same 16-byte
// index-bracket read; keeping one copy here means the raw and compressed
// on-media formats are defined in exactly one package.

// WriteInt64s streams vals into store as little-endian bytes from offset
// 0, in chunk-sized writes charged to clock (nil clock writes untimed).
func WriteInt64s(store nvm.Storage, clock *vtime.Clock, vals []int64) error {
	return writeInt64s(store, clock, vals)
}

// WriteBytes streams p into store from offset 0 in chunk-sized writes
// charged to clock (nil clock writes untimed).
func WriteBytes(store nvm.Storage, clock *vtime.Clock, p []byte) error {
	return writeBytes(store, clock, p)
}

// StreamIndexedNeighbors streams one vertex's adjacency out of an
// (index, value) store pair laid out the standard way: idx holds n+1
// little-endian int64 offsets, entry i bracketing local vertex i's range
// in val. The bracket [i, i+1] is read as one 16-byte request, then the
// value range streams through StreamNeighbors, so raw (element offsets)
// and delta+varint-compressed (byte offsets) stores read identically.
// src is the global vertex ID the compressed decoder needs; i is the
// local index into idx. fn, scratch, ids and chunkBytes behave exactly
// as in StreamNeighbors; the bracket is read into scratch too (a local
// array would escape through the Storage interface and cost one heap
// object per call), and its offsets are extracted before scratch is
// reused.
func StreamIndexedNeighbors(idx, val nvm.Storage, clock *vtime.Clock, compressed bool,
	src, i int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	fn func(nb int64) bool) (examined int64, err error) {
	if cap(*scratch) < 16 {
		*scratch = make([]byte, 16)
	}
	bracket := (*scratch)[:16]
	if err := idx.ReadAt(clock, bracket, i*8); err != nil {
		return 0, err
	}
	lo := int64(binary.LittleEndian.Uint64(bracket[0:8]))
	hi := int64(binary.LittleEndian.Uint64(bracket[8:16]))
	return StreamNeighbors(val, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, fn)
}

package semiext

import (
	"encoding/binary"

	"semibfs/internal/csr"
	"semibfs/internal/enc"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// This file holds the store glue every consumer of on-NVM adjacency
// shares: the one writer of a CSR's (index, value) store pair and the
// index-bracket read. The forward graph and the cluster machines' blocks
// are written and read by the same code, so the raw and compressed
// on-media formats are defined exactly once.

// WriteAdjacency writes g to the store pair idx / val, the value store
// first, in chunk-sized writes charged to clock (nil clock writes
// untimed). Raw, val holds g's neighbour IDs as little-endian int64s and
// idx g.Index. Compressed, val holds every list as one delta+varint block
// (enc package) anchored at its global source ID, and idx the blocks'
// byte offsets. It returns the index it stored and the value bytes.
func WriteAdjacency(idx, val nvm.Storage, clock *vtime.Clock, g *csr.LocalGraph, compress bool) (index []int64, valueBytes int64, err error) {
	index = g.Index
	if compress {
		var encoded []byte
		index = make([]int64, g.Len+1)
		for i := int64(0); i < g.Len; i++ {
			encoded = enc.AppendList(encoded, g.Base+i, g.Value[g.Index[i]:g.Index[i+1]])
			index[i+1] = int64(len(encoded))
		}
		valueBytes = int64(len(encoded))
		err = writeBytes(val, clock, encoded)
	} else {
		valueBytes = int64(len(g.Value)) * 8
		err = writeInt64s(val, clock, g.Value)
	}
	if err == nil {
		err = writeInt64s(idx, clock, index)
	}
	return index, valueBytes, err
}

// StreamIndexedNeighbors streams one vertex's adjacency out of an
// (index, value) store pair written by WriteAdjacency to fn a batch at a
// time, until fn stops or the list is exhausted, and returns how many
// neighbours fn examined (fn's contract is streamNeighbors'). idx holds n+1
// little-endian int64 offsets, entry i bracketing local vertex i's range
// in val: element offsets of raw IDs, or byte offsets of one delta+varint
// block whose decode cost is charged to clock at the rate of dev, val's
// device, which the caller resolves once when it builds the pair (see
// chargeDecode). src is the global vertex ID
// the compressed decoder needs; i is the local index into idx. The bracket
// [i, i+1] is read as one 16-byte request, then the value range in reads
// of at most chunkBytes (<= 0 selects nvm.DefaultChunkSize) into *scratch
// and, raw or decoded, into *ids (see streamNeighbors); both are grown and
// reused across calls. The bracket is read into scratch too (a
// local array would escape through the Storage interface and cost one
// heap object per call), and its offsets are extracted before scratch is
// reused.
func StreamIndexedNeighbors(idx, val nvm.Storage, dev *nvm.Device, clock *vtime.Clock, compressed bool,
	src, i int64, scratch *[]byte, ids *[]int64, chunkBytes int,
	fn func(nbs []int64) (int, bool)) (examined int64, err error) {
	if cap(*scratch) < 16 {
		*scratch = make([]byte, 16)
	}
	bracket := (*scratch)[:16]
	if err := idx.ReadAt(clock, bracket, i*8); err != nil {
		return 0, err
	}
	lo := int64(binary.LittleEndian.Uint64(bracket[0:8]))
	hi := int64(binary.LittleEndian.Uint64(bracket[8:16]))
	return streamStored(val, dev, clock, compressed, src, lo, hi, scratch, ids, chunkBytes, fn)
}

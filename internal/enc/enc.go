// Package enc implements the delta+varint adjacency encoding the
// semi-external graphs store on NVM.
//
// Format: one adjacency list is a *count-prefixed varint block*
//
//	uvarint(len(nbs))  varint(nbs[0]-src)  varint(nbs[1]-nbs[0])  ...
//
// The first element is delta-encoded against the owning source vertex
// (adjacency offsets cluster around their source in Kronecker graphs) and
// every subsequent element against its predecessor. Deltas use zig-zag
// signed varints (encoding/binary's Varint), so any neighbor order
// round-trips: ascending-sorted forward lists produce small positive
// deltas (the ~2-4x win), while the backward graph's degree-descending
// tails still encode correctly, just less tightly.
//
// Corruption policy: every malformed input — truncated varint, varint
// overflow, impossible count — decodes to an error wrapping
// nvm.ErrCorrupt, never a panic, so the storage stack's error taxonomy
// (retry, failover, degraded mode) applies to compressed blocks exactly
// as it does to checksum mismatches.
package enc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"semibfs/internal/nvm"
)

// corruptf wraps a decode failure in nvm.ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("enc: "+format+": %w", append(args, nvm.ErrCorrupt)...)
}

// MaxEncodedLen bounds the encoded size of a list of n neighbors (header
// plus n maximal varints), for sizing encode buffers.
func MaxEncodedLen(n int) int {
	return (n + 1) * binary.MaxVarintLen64
}

// AppendList appends the encoding of nbs relative to source vertex src to
// dst and returns the extended slice. Empty lists encode to a single zero
// byte.
func AppendList(dst []byte, src int64, nbs []int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(nbs)))
	dst = append(dst, tmp[:n]...)
	prev := src
	for _, v := range nbs {
		n = binary.PutVarint(tmp[:], v-prev)
		dst = append(dst, tmp[:n]...)
		prev = v
	}
	return dst
}

// DecodeList decodes one complete list from the front of data, appending
// the neighbors to out (pass out[:0] to reuse a buffer). It returns the
// extended slice and the number of bytes consumed. Truncated or malformed
// input returns an error wrapping nvm.ErrCorrupt.
func DecodeList(data []byte, src int64, out []int64) ([]int64, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return out, 0, corruptf("list header: bad count varint (n=%d)", n)
	}
	pos := n
	// Each delta occupies at least one byte, so a count exceeding the
	// remaining bytes is impossible — reject before allocating.
	if count > uint64(len(data)-pos) {
		return out, 0, corruptf("list header: count %d exceeds %d encoded bytes",
			count, len(data)-pos)
	}
	if need := len(out) + int(count); cap(out) < need {
		grown := make([]int64, len(out), need)
		copy(grown, out)
		out = grown
	}
	prev := src
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Varint(data[pos:])
		if n <= 0 {
			return out, 0, corruptf("element %d at byte %d: bad delta varint (n=%d)", i, pos, n)
		}
		pos += n
		prev += delta
		out = append(out, prev)
	}
	return out, pos, nil
}

// Decoder decodes one list incrementally from a stream of byte chunks, so
// a reader can stop early (bottom-up tail scans) without buffering or
// decoding the whole block. Feed chunks to Decode; it consumes only whole
// varints, and the caller carries unconsumed trailing bytes into the next
// chunk.
type Decoder struct {
	prev      int64
	count     uint64
	remaining uint64
	started   bool
}

// Reset prepares the decoder for a new list owned by source vertex src.
func (d *Decoder) Reset(src int64) {
	*d = Decoder{prev: src}
}

// Done reports whether the whole list has been decoded.
func (d *Decoder) Done() bool { return d.started && d.remaining == 0 }

// Emitted returns how many neighbors Decode has passed to emit since
// Reset, so a caller that only counts them needs no wrapper around emit.
func (d *Decoder) Emitted() int64 { return int64(d.count - d.remaining) }

// Decode consumes as many complete varints from data as possible, calling
// emit for each decoded neighbor until emit returns false. It returns the
// bytes consumed and whether emit stopped the stream. A partial varint at
// the end of data is left unconsumed (consumed < len(data), no error);
// the caller prepends it to the next chunk. Malformed varints return an
// error wrapping nvm.ErrCorrupt.
func (d *Decoder) Decode(data []byte, emit func(nb int64) bool) (consumed int, stopped bool, err error) {
	pos := 0
	if !d.started {
		count, n := binary.Uvarint(data)
		if n == 0 {
			return 0, false, nil // header split across chunks
		}
		if n < 0 {
			return 0, false, corruptf("stream header: count varint overflow")
		}
		d.count, d.remaining = count, count
		d.started = true
		pos = n
	}
	for d.remaining > 0 && pos < len(data) {
		// Deltas of up to four bytes (|delta| < 2^27) are decoded inline and
		// without a branch on their length: this loop runs once per NVM
		// edge, the lengths are random, and a mispredicted length costs as
		// much as the neighbor's use. Longer, split and malformed varints
		// (and the last three bytes of a chunk) take the encoding/binary
		// path, so their handling is the library's.
		var ux uint64
		n := 0
		rest := data[pos:]
		var ends uint32 // bit 7 of each of the next four bytes that ends a varint
		if len(rest) >= 4 {
			ends = ^binary.LittleEndian.Uint32(rest) & 0x80808080
		}
		if ends != 0 {
			n = bits.TrailingZeros32(ends)/8 + 1
			w := binary.LittleEndian.Uint32(rest) & uint32(1<<(8*n)-1)
			ux = uint64(w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000 | w>>3&0xfe00000)
		} else {
			ux, n = binary.Uvarint(rest)
			if n == 0 {
				return pos, false, nil // delta split across chunks
			}
			if n < 0 {
				return pos, false, corruptf("stream at byte %d: delta varint overflow", pos)
			}
		}
		pos += n
		d.prev += int64(ux>>1) ^ -int64(ux&1) // zig-zag, as binary.Varint
		d.remaining--
		if !emit(d.prev) {
			return pos, true, nil
		}
	}
	return pos, false, nil
}

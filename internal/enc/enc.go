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
	"slices"

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
// input returns an error wrapping nvm.ErrCorrupt; consumed is then the
// bytes of the neighbors decoded before the data ran out — what a
// streaming reader has consumed when it finds the list cut short — or 0
// when a varint is malformed. It is the Decoder's batch loop over the
// whole list, with out grown once to the count the header announces.
func DecodeList(data []byte, src int64, out []int64) ([]int64, int, error) {
	var d Decoder
	d.Reset(src)
	_, pos, err := d.Next(data, nil) // the count header alone
	if err != nil {
		return out, 0, err
	}
	if !d.started {
		return out, 0, corruptf("list header: truncated count varint")
	}
	// Each delta occupies at least one byte, so out never grows past the
	// bytes left, whatever a corrupt count says.
	base := len(out)
	out = slices.Grow(out, int(min(d.remaining, uint64(len(data)-pos))))
	nbs, n, err := d.Next(data[pos:], out[base:cap(out)])
	out = out[:base+len(nbs)]
	if err != nil {
		return out, 0, err
	}
	if !d.Done() {
		return out, pos + n, corruptf("list truncated after %d neighbors", len(nbs))
	}
	return out, pos + n, nil
}

// Decoder decodes one list incrementally from a stream of byte chunks, a
// batch of neighbors at a time, so a reader can hand its consumer a slice
// per chunk and stop early (bottom-up tail scans) without buffering or
// decoding the whole block. Feed chunks to Next; it consumes only whole
// varints, and the caller carries unconsumed trailing bytes into the next
// chunk.
type Decoder struct {
	prev      int64
	remaining uint64
	started   bool
	// first is the offset in the last Next call's data of its first delta
	// (past the count header when that call read it), where Through starts.
	first int
}

// Reset prepares the decoder for a new list owned by source vertex src.
func (d *Decoder) Reset(src int64) {
	*d = Decoder{prev: src}
}

// Done reports whether the whole list has been decoded.
func (d *Decoder) Done() bool { return d.started && d.remaining == 0 }

// Next decodes complete varints from the front of data into out's backing
// array — at most cap(out) neighbors, and no more than the list has left —
// and returns them as a slice of it, with the bytes consumed. A partial
// varint at the end of data is left unconsumed (consumed < len(data), no
// error); the caller prepends it to the next chunk. A call that returns
// cap(out) neighbors may have left complete varints behind: call again on
// data[consumed:].
//
// A malformed varint returns an error wrapping nvm.ErrCorrupt together
// with the neighbors decoded before it, and consumed counts the bytes
// through the last of them: a caller hands those neighbors on first, and
// reports the error only if its consumer did not stop among them.
func (d *Decoder) Next(data []byte, out []int64) (nbs []int64, consumed int, err error) {
	pos := 0
	if !d.started {
		count, n := binary.Uvarint(data)
		if n == 0 {
			return out[:0], 0, nil // header split across chunks
		}
		if n < 0 {
			return out[:0], 0, corruptf("stream header: count varint overflow")
		}
		d.remaining = count
		d.started = true
		pos = n
	}
	d.first = pos
	out = out[:cap(out)]
	if uint64(len(out)) > d.remaining {
		out = out[:d.remaining]
	}
	prev := d.prev
	i := 0
	for i < len(out) {
		// Deltas of up to four bytes (|delta| < 2^27) are decoded inline and
		// without a branch on their length: this loop runs once per NVM
		// edge, the lengths are random, and a mispredicted length costs as
		// much as the neighbor's use. Longer, split and malformed varints
		// (and the last three bytes of a chunk) take longVarint, out of
		// line so that its error path does not crowd the loop's registers.
		var ux uint64
		n := 0
		if len(data)-pos >= 4 {
			w := binary.LittleEndian.Uint32(data[pos:])
			if ends := ^w & 0x80808080; ends != 0 { // bit 7 of each byte that ends a varint
				n = bits.TrailingZeros32(ends)>>3 + 1
				w &= ends ^ (ends - 1) // the first varint's bytes
				ux = uint64(w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000 | w>>3&0xfe00000)
			}
		}
		if n == 0 {
			if ux, n = longVarint(data[pos:]); n <= 0 {
				if n < 0 {
					err = corruptf("stream at byte %d: delta varint overflow", pos)
				}
				break // n == 0: the delta is split across chunks
			}
		}
		pos += n
		prev += int64(ux>>1) ^ -int64(ux&1) // zig-zag, as binary.Varint
		out[i] = prev
		i++
	}
	d.prev = prev
	d.remaining -= uint64(i)
	return out[:i], pos, err
}

// longVarint is binary.Uvarint, kept out of Next's loop.
//
//go:noinline
func longVarint(data []byte) (uint64, int) { return binary.Uvarint(data) }

// Through returns the bytes of data — the last Next call's argument — that
// call would have consumed had it stopped after its k-th neighbor: the
// count header if the call read it, then k deltas. A reader whose consumer
// stops inside a batch charges decode time for exactly these bytes.
func (d *Decoder) Through(data []byte, k int) int {
	pos := d.first
	for ; k > 0; pos++ {
		if data[pos] < 0x80 {
			k--
		}
	}
	return pos
}

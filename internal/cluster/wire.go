package cluster

// Wire formats for the simulated interconnect. Every message a level
// exchanges — bottom-up frontier/claim-state bitmaps, top-down sparse
// frontier lists, top-down candidate (child, parent) pairs — is really
// encoded by the sender and really decoded by the receiver, so CommBytes
// measures actual encoded lengths and a codec bug breaks BFS trees, not
// just a counter.
//
// Each message starts with a one-byte tag selecting the encoding. A
// compressing sender ships the compact form only when it is strictly
// shorter than the literal one, so compressed wire volume is <= raw by
// construction on every message; with compression off only the literal
// form is produced. Both forms share their header (tag, uvarint) and the
// literal payload's length is closed-form, so an encoder writes the compact
// payload straight onto dst and overwrites it with the literal one when it
// did not come out shorter — no temporaries. All malformed-input errors wrap nvm.ErrCorrupt, the
// same sentinel the storage stack uses for on-media corruption.
//
// Formats (all varints are encoding/binary uvarints; signed values use
// zigzag):
//
//	bitmap literal:  tag 0x01 | uvarint span | ceil(span/8) packed bytes
//	bitmap RLE:      tag 0x02 | uvarint span | run lengths, alternating
//	                 starting with a zero run, summing exactly to span
//	list literal:    tag 0x03 | uvarint count | count * 8B little-endian
//	list delta:      tag 0x04 | uvarint count | zigzag deltas from prev
//	pairs literal:   tag 0x05 | uvarint count | count * (childLE, parentLE)
//	pairs delta:     tag 0x06 | uvarint count | per pair: uvarint child
//	                 delta (children ascending) | zigzag parent delta
import (
	"encoding/binary"
	"fmt"

	"semibfs/internal/nvm"
)

const (
	wireBitmapRaw  = 0x01
	wireBitmapRLE  = 0x02
	wireListRaw    = 0x03
	wireListDelta  = 0x04
	wirePairsRaw   = 0x05
	wirePairsDelta = 0x06
)

// wireCorrupt reports a malformed wire message, wrapping nvm.ErrCorrupt.
func wireCorrupt(format string, args ...any) error {
	return fmt.Errorf("cluster: wire: "+format+": %w",
		append(args, nvm.ErrCorrupt)...)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// getUvarint decodes one uvarint, failing on truncation or overflow.
func getUvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, wireCorrupt("bad uvarint")
	}
	return v, n, nil
}

// appendBitmap encodes bits [lo, hi) of test (re-based to bit 0) onto dst.
func appendBitmap(dst []byte, test func(int) bool, lo, hi int, compress bool) []byte {
	span := max(hi-lo, 0)
	start := len(dst)
	dst = binary.AppendUvarint(append(dst, wireBitmapRLE), uint64(span))
	body, nb := len(dst), (span+7)/8
	if compress {
		// Run-length form: alternating zero/one run lengths.
		run, cur := 0, false
		for i := 0; i < span; i++ {
			b := test(lo + i)
			if b == cur {
				run++
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(run))
			cur, run = b, 1
		}
		dst = binary.AppendUvarint(dst, uint64(run))
		if len(dst)-body < nb {
			return dst
		}
	}
	// Literal form.
	dst[start] = wireBitmapRaw
	dst = append(dst[:body], make([]byte, nb)...)
	payload := dst[body:]
	for i := 0; i < span; i++ {
		if test(lo + i) {
			payload[i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}

// decodeBitmap decodes one bitmap message from data, calling set for every
// set bit (re-based: bit 0 is the first bit of the encoded span). Spans
// above maxSpan are rejected as corrupt. Returns the span and the number
// of bytes consumed.
func decodeBitmap(data []byte, maxSpan int, set func(int)) (span, consumed int, err error) {
	if len(data) == 0 {
		return 0, 0, wireCorrupt("empty bitmap message")
	}
	tag := data[0]
	sp, n, err := getUvarint(data[1:])
	if err != nil {
		return 0, 0, err
	}
	off := 1 + n
	if sp > uint64(maxSpan) {
		return 0, 0, wireCorrupt("bitmap span %d exceeds limit %d", sp, maxSpan)
	}
	span = int(sp)
	switch tag {
	case wireBitmapRaw:
		nb := (span + 7) / 8
		if len(data) < off+nb {
			return 0, 0, wireCorrupt("bitmap literal truncated: want %d payload bytes, have %d", nb, len(data)-off)
		}
		for i := 0; i < span; i++ {
			if data[off+i/8]&(1<<uint(i%8)) != 0 {
				set(i)
			}
		}
		return span, off + nb, nil
	case wireBitmapRLE:
		pos, cur, total := off, false, 0
		for total < span {
			run, n, err := getUvarint(data[pos:])
			if err != nil {
				return 0, 0, err
			}
			pos += n
			if run == 0 && total > 0 {
				return 0, 0, wireCorrupt("zero-length interior run at byte %d", pos)
			}
			if run > uint64(span-total) {
				return 0, 0, wireCorrupt("run overflows span: %d bits left, run %d", span-total, run)
			}
			if cur {
				for i := 0; i < int(run); i++ {
					set(total + i)
				}
			}
			total += int(run)
			cur = !cur
		}
		return span, pos, nil
	default:
		return 0, 0, wireCorrupt("unknown bitmap tag 0x%02x", tag)
	}
}

// appendList encodes a vertex list onto dst. Order is preserved; the delta
// form uses zigzag deltas so the list need not be sorted.
func appendList(dst []byte, vs []int64, compress bool) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(append(dst, wireListDelta), uint64(len(vs)))
	body := len(dst)
	if compress {
		prev := int64(0)
		for _, v := range vs {
			dst = binary.AppendUvarint(dst, zigzag(v-prev))
			prev = v
		}
		if len(dst)-body < 8*len(vs) {
			return dst
		}
	}
	dst[start] = wireListRaw
	dst = dst[:body]
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// decodeList decodes one vertex-list message, appending the values to out.
// Returns the extended slice and the number of bytes consumed.
func decodeList(data []byte, out []int64) ([]int64, int, error) {
	if len(data) == 0 {
		return out, 0, wireCorrupt("empty list message")
	}
	tag := data[0]
	cnt, n, err := getUvarint(data[1:])
	if err != nil {
		return out, 0, err
	}
	off := 1 + n
	switch tag {
	case wireListRaw:
		if cnt > uint64(len(data)-off)/8 {
			return out, 0, wireCorrupt("list literal truncated: count %d, %d payload bytes", cnt, len(data)-off)
		}
		for i := 0; i < int(cnt); i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		}
		return out, off, nil
	case wireListDelta:
		if cnt > uint64(len(data)-off) {
			return out, 0, wireCorrupt("list delta truncated: count %d, %d payload bytes", cnt, len(data)-off)
		}
		prev := int64(0)
		for i := 0; i < int(cnt); i++ {
			d, n, err := getUvarint(data[off:])
			if err != nil {
				return out, 0, err
			}
			off += n
			prev += unzigzag(d)
			out = append(out, prev)
		}
		return out, off, nil
	default:
		return out, 0, wireCorrupt("unknown list tag 0x%02x", tag)
	}
}

// appendPairs encodes candidate (child, parent) pairs onto dst. The delta
// form requires children in ascending order (the arbitration dedup sorts
// them); the literal form preserves any order.
func appendPairs(dst []byte, ps []pair, compress bool) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(append(dst, wirePairsDelta), uint64(len(ps)))
	body := len(dst)
	// Unsorted children cannot take the delta form.
	for i := 1; compress && i < len(ps); i++ {
		compress = ps[i].child >= ps[i-1].child
	}
	if compress {
		prevC, prevP := int64(0), int64(0)
		for _, p := range ps {
			dst = binary.AppendUvarint(dst, uint64(p.child-prevC))
			dst = binary.AppendUvarint(dst, zigzag(p.parent-prevP))
			prevC, prevP = p.child, p.parent
		}
		if len(dst)-body < 16*len(ps) {
			return dst
		}
	}
	dst[start] = wirePairsRaw
	dst = dst[:body]
	for _, p := range ps {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.child))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.parent))
	}
	return dst
}

// decodePairs decodes one candidate-pair message, appending to out.
func decodePairs(data []byte, out []pair) ([]pair, int, error) {
	if len(data) == 0 {
		return out, 0, wireCorrupt("empty pairs message")
	}
	tag := data[0]
	cnt, n, err := getUvarint(data[1:])
	if err != nil {
		return out, 0, err
	}
	off := 1 + n
	switch tag {
	case wirePairsRaw:
		if cnt > uint64(len(data)-off)/16 {
			return out, 0, wireCorrupt("pairs literal truncated: count %d, %d payload bytes", cnt, len(data)-off)
		}
		for i := 0; i < int(cnt); i++ {
			out = append(out, pair{
				child:  int64(binary.LittleEndian.Uint64(data[off:])),
				parent: int64(binary.LittleEndian.Uint64(data[off+8:])),
			})
			off += 16
		}
		return out, off, nil
	case wirePairsDelta:
		if cnt > uint64(len(data)-off)/2 {
			return out, 0, wireCorrupt("pairs delta truncated: count %d, %d payload bytes", cnt, len(data)-off)
		}
		prevC, prevP := int64(0), int64(0)
		for i := 0; i < int(cnt); i++ {
			dc, n, err := getUvarint(data[off:])
			if err != nil {
				return out, 0, err
			}
			off += n
			dp, n2, err := getUvarint(data[off:])
			if err != nil {
				return out, 0, err
			}
			off += n2
			prevC += int64(dc)
			prevP += unzigzag(dp)
			out = append(out, pair{child: prevC, parent: prevP})
		}
		return out, off, nil
	default:
		return out, 0, wireCorrupt("unknown pairs tag 0x%02x", tag)
	}
}

package nvm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"semibfs/internal/vtime"
)

// WALStore is a checksummed write-ahead log layered over any Storage —
// usually a full BuildStack stack, so log appends flow through the same
// metrics/retry/mirror/checksum layers as graph data. The log is a dense
// sequence of framed records:
//
//	magic   uint32  (walMagic, little-endian)
//	seq     uint64  (strictly increasing by 1 within one log)
//	length  uint32  (payload bytes, <= MaxWALRecord)
//	payload length bytes
//	crc     uint32  (CRC32-C over seq|length|payload)
//
// Replay scans from offset zero and stops at the first frame that fails
// any check (bad magic, impossible length, truncated payload, CRC
// mismatch, or a sequence discontinuity): everything before it is the
// durable prefix, everything after is a torn tail from a power cut and is
// discarded. A record is durable exactly when its full frame — CRC last —
// reached the store, which is the property the torn-write fault kind in
// internal/faults attacks.
type WALStore struct {
	name  string
	store Storage

	tail    int64  // byte offset one past the last durable record
	next    uint64 // sequence number the next Append will use
	scratch []byte

	appends int64
	bytes   int64
	torn    int64
}

const (
	walMagic      = 0x57414C31 // "WAL1"
	walHeaderSize = 4 + 8 + 4
	walFrameExtra = walHeaderSize + 4 // header + trailing CRC

	// MaxWALRecord bounds a single record's payload so a corrupt length
	// field cannot make replay attempt a multi-gigabyte read.
	MaxWALRecord = 1 << 24
)

var walTable = crc32.MakeTable(crc32.Castagnoli)

// NewWALStore returns an empty log over store. The first record appended
// gets sequence number 1.
func NewWALStore(name string, store Storage) *WALStore {
	return &WALStore{name: name, store: store, next: 1}
}

// OpenWALStore reopens an existing log (typically after a crash): it
// scans store from offset zero, calls fn for every durable record whose
// sequence number is greater than after (the compaction watermark), and
// positions the log so Append continues after the last durable record.
// Records at or below the watermark are already folded into the
// compacted CSR generation and are skipped without a callback. A nil fn
// just recovers the position.
func OpenWALStore(name string, store Storage, clock *vtime.Clock, after uint64, fn func(seq uint64, payload []byte) error) (*WALStore, error) {
	w := &WALStore{name: name, store: store, next: 1}
	size := store.Size()
	var (
		off  int64
		prev uint64
		hdr  [walHeaderSize]byte
	)
	for off+walFrameExtra <= size {
		if err := store.ReadAt(clock, hdr[:], off); err != nil {
			return nil, fmt.Errorf("nvm: wal %s: replay header @%d: %w", name, off, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != walMagic {
			w.torn++
			break
		}
		seq := binary.LittleEndian.Uint64(hdr[4:12])
		length := int64(binary.LittleEndian.Uint32(hdr[12:16]))
		if length > MaxWALRecord || off+walFrameExtra+length > size {
			w.torn++
			break
		}
		if prev != 0 && seq != prev+1 {
			// A stale record from before a log reset, or garbage that
			// happens to frame: either way the durable prefix ends here.
			w.torn++
			break
		}
		body := make([]byte, length+4)
		if err := store.ReadAt(clock, body, off+walHeaderSize); err != nil {
			return nil, fmt.Errorf("nvm: wal %s: replay record %d @%d: %w", name, seq, off, err)
		}
		crc := crc32.Update(0, walTable, hdr[4:walHeaderSize])
		crc = crc32.Update(crc, walTable, body[:length])
		if crc != binary.LittleEndian.Uint32(body[length:]) {
			w.torn++
			break
		}
		if seq > after {
			if fn != nil {
				if err := fn(seq, body[:length]); err != nil {
					return nil, fmt.Errorf("nvm: wal %s: replay record %d: %w", name, seq, err)
				}
			}
		}
		prev = seq
		off += walFrameExtra + length
		w.next = seq + 1
		w.tail = off
	}
	if w.next <= after {
		// The whole surviving log predates the watermark (it was reset
		// and nothing new was appended before the crash): continue the
		// global sequence from the watermark so new records replay.
		w.next = after + 1
	}
	return w, nil
}

// Append durably logs payload and returns its sequence number. The
// record only counts as durable once every byte including the trailing
// CRC reaches the store; a power cut mid-append leaves a torn frame that
// replay discards.
func (w *WALStore) Append(clock *vtime.Clock, payload []byte) (uint64, error) {
	if len(payload) > MaxWALRecord {
		return 0, fmt.Errorf("nvm: wal %s: record %d bytes exceeds limit %d", w.name, len(payload), MaxWALRecord)
	}
	seq := w.next
	need := walFrameExtra + len(payload)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	buf := w.scratch[:need]
	binary.LittleEndian.PutUint32(buf[0:4], walMagic)
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(payload)))
	copy(buf[walHeaderSize:], payload)
	crc := crc32.Update(0, walTable, buf[4:walHeaderSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[walHeaderSize+len(payload):], crc)
	if err := w.store.WriteAt(clock, buf, w.tail); err != nil {
		return 0, fmt.Errorf("nvm: wal %s: append record %d: %w", w.name, seq, err)
	}
	w.tail += int64(need)
	w.next = seq + 1
	w.appends++
	w.bytes += int64(need)
	return seq, nil
}

// Reset truncates the log after a compaction folded every record up to
// the manifest watermark into the base CSR. Sequence numbers keep
// increasing across resets (the watermark makes them comparable), but the
// log restarts physically at offset zero: a zero frame is written over
// the old first record so a crash right after Reset does not replay
// pre-compaction records — and if the zero write itself is lost to a
// power cut, the surviving old records all sit at or below the watermark
// and are skipped anyway.
func (w *WALStore) Reset(clock *vtime.Clock) error {
	if w.store.Size() > 0 {
		var zero [walHeaderSize]byte
		if err := w.store.WriteAt(clock, zero[:], 0); err != nil {
			return fmt.Errorf("nvm: wal %s: reset: %w", w.name, err)
		}
	}
	w.tail = 0
	return nil
}

// NextSeq returns the sequence number the next Append will use.
func (w *WALStore) NextSeq() uint64 { return w.next }

// LastSeq returns the sequence number of the last durable record (0 if
// none have been appended since the log was created or opened).
func (w *WALStore) LastSeq() uint64 { return w.next - 1 }

// Tail returns the byte offset one past the last durable record.
func (w *WALStore) Tail() int64 { return w.tail }

// WALStats reports log activity counters.
type WALStats struct {
	// Appends is the number of records durably appended.
	Appends int64
	// AppendedBytes is the framed byte volume appended.
	AppendedBytes int64
	// TornTail is 1 if the last open discarded a torn/invalid tail.
	TornTail int64
}

// Stats returns a snapshot of the log's counters.
func (w *WALStore) Stats() WALStats {
	return WALStats{Appends: w.appends, AppendedBytes: w.bytes, TornTail: w.torn}
}

// Close closes the underlying store.
func (w *WALStore) Close() error { return w.store.Close() }

package nvm

import (
	"fmt"
	"hash/crc32"

	"semibfs/internal/vtime"
)

// castagnoli is the CRC32-C polynomial table, the checksum flash devices
// and filesystems (ext4, btrfs) use for data integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumStore wraps a Storage with per-block CRC32-C verification so that
// corrupted chunks are *detected* instead of silently traversed. Checksums
// are computed on write and kept in DRAM (4 bytes per block, ~0.1% of the
// offloaded bytes at the default 4 KiB block); every read is verified.
//
// Like any block-granular integrity scheme (DIF/DIX, ZFS), verification
// requires whole blocks: reads are rounded out to block boundaries before
// hitting the inner store, so a verified read can charge the device for up
// to one extra block of transfer on each side. That cost is the price of
// detection and is reported honestly through the device model.
type ChecksumStore struct {
	inner Storage
	name  string
	block int64

	sums []uint32
	size int64
	// failures counts detected corruptions (for health reporting).
	failures int64
	// buf is the block-aligned scratch reads and partial-block
	// re-checksums go through, kept for the next call.
	buf []byte
}

// WrapChecksum wraps inner with per-block verification. block <= 0 selects
// DefaultChunkSize. If inner already holds data, its current contents are
// checksummed as-is (trusted at wrap time) without device charges.
func WrapChecksum(inner Storage, block int) (*ChecksumStore, error) {
	return WrapChecksumNamed(inner, "", block)
}

// WrapChecksumNamed is WrapChecksum with a store name carried into every
// read-path error, so failover and degraded-mode logs identify which
// replica and block failed verification.
func WrapChecksumNamed(inner Storage, name string, block int) (*ChecksumStore, error) {
	if block <= 0 {
		block = DefaultChunkSize
	}
	s := &ChecksumStore{inner: inner, name: name, block: int64(block), size: inner.Size()}
	if s.size > 0 {
		nb := (s.size + s.block - 1) / s.block
		s.sums = make([]uint32, nb)
		buf := make([]byte, s.block)
		for b := int64(0); b < nb; b++ {
			lo, hi := b*s.block, (b+1)*s.block
			if hi > s.size {
				hi = s.size
			}
			if err := inner.ReadAt(nil, buf[:hi-lo], lo); err != nil {
				return nil, fmt.Errorf("nvm: checksum existing contents: %w", err)
			}
			s.sums[b] = crc32.Checksum(buf[:hi-lo], castagnoli)
		}
	}
	return s, nil
}

// Name returns the store name carried into errors ("" when anonymous).
func (s *ChecksumStore) Name() string { return s.name }

// Device returns the inner store's device model.
func (s *ChecksumStore) Device() *Device { return s.inner.Device() }

// Size returns the store's current size in bytes.
func (s *ChecksumStore) Size() int64 { return s.size }

// Failures returns the number of corruptions detected so far.
func (s *ChecksumStore) Failures() int64 { return s.failures }

// Close closes the inner store.
func (s *ChecksumStore) Close() error { return s.inner.Close() }

// Kind implements Layer.
func (s *ChecksumStore) Kind() string { return "checksum" }

// Unwrap implements Layer.
func (s *ChecksumStore) Unwrap() Storage { return s.inner }

// AppendCounters implements Layer.
func (s *ChecksumStore) AppendCounters(dst []Counter) []Counter {
	return append(dst,
		Counter{Name: "corruptions_detected", Value: s.failures},
		Counter{Name: "block_bytes", Value: s.block, Gauge: true},
		Counter{Name: "checksum_bytes", Value: int64(len(s.sums)) * 4, Gauge: true},
	)
}

// scratch returns the kept buffer resized to n bytes.
func (s *ChecksumStore) scratch(n int64) []byte {
	if int64(cap(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// WriteAt implements Storage: it writes through to the inner store and
// refreshes the checksums of every covered block.
func (s *ChecksumStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("nvm: checksum store write at negative offset %d", off)
	}
	if err := s.inner.WriteAt(clock, p, off); err != nil {
		return err
	}
	end := off + int64(len(p))
	oldSize := s.size
	if end > s.size {
		s.size = end
	}
	bs := s.block
	nb := (s.size + bs - 1) / bs
	for int64(len(s.sums)) < nb {
		s.sums = append(s.sums, 0)
	}
	// Refresh every block whose region changed: the written range, plus —
	// when the write skipped past the old end — the zero-filled gap and
	// the block straddling the old end (its region grew).
	rlo := off
	if off > oldSize {
		rlo = oldSize
	}
	for b := rlo / bs; b*bs < end; b++ {
		lo, hi := b*bs, (b+1)*bs
		if hi > s.size {
			hi = s.size
		}
		switch {
		case off <= lo && end >= hi:
			s.sums[b] = crc32.Checksum(p[lo-off:hi-off], castagnoli)
		case lo >= oldSize && hi <= off:
			// Entirely inside the implicit zero-filled gap.
			buf := s.scratch(hi - lo)
			clear(buf)
			s.sums[b] = crc32.Checksum(buf, castagnoli)
		default:
			// Partial block coverage: read the block back (contents
			// are current post-write) to recompute its checksum. The
			// extra read is charged like any other — partial-block
			// writes pay for it.
			buf := s.scratch(hi - lo)
			if err := s.inner.ReadAt(clock, buf, lo); err != nil {
				return fmt.Errorf("nvm: checksum read-back @%d: %w", lo, err)
			}
			s.sums[b] = crc32.Checksum(buf, castagnoli)
		}
	}
	return nil
}

// ReadAt implements Storage: the requested range is rounded out to block
// boundaries, read from the inner store, verified block-by-block, and the
// requested bytes copied out. A mismatch returns a *CorruptionError
// (wrapping ErrCorrupt); a retry re-reads the media and may succeed.
func (s *ChecksumStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	size := s.size
	if off < 0 || off+int64(len(p)) > size {
		name := s.name
		if name == "" {
			name = "checksum store"
		}
		return fmt.Errorf("nvm: %s: block %d: read [%d,%d) out of range [0,%d)",
			name, off/s.block, off, off+int64(len(p)), size)
	}
	bs := s.block
	alo := off - off%bs
	ahi := off + int64(len(p))
	if r := ahi % bs; r != 0 {
		ahi += bs - r
	}
	if ahi > size {
		ahi = size
	}
	buf := s.scratch(ahi - alo)
	if err := s.inner.ReadAt(clock, buf, alo); err != nil {
		return err
	}
	for b := alo / bs; b*bs < ahi; b++ {
		lo, hi := b*bs, (b+1)*bs
		if hi > size {
			hi = size
		}
		got := crc32.Checksum(buf[lo-alo:hi-alo], castagnoli)
		if want := s.sums[b]; got != want {
			s.failures++
			if dev := s.inner.Device(); dev != nil {
				dev.NoteError()
			}
			return &CorruptionError{Store: s.name, Block: b, Off: lo, Want: want, Got: got}
		}
	}
	copy(p, buf[off-alo:])
	return nil
}

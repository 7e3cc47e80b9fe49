package nvm

import (
	"fmt"
	"math"
	"os"

	"semibfs/internal/vtime"
)

// Storage is the byte-addressed store offloaded graph data lives in.
// Reads and writes are split into chunks of at most the store's chunk size
// (4 KiB by default, matching the paper's read(2) access pattern), and
// each chunk is charged to the store's device model at the worker clock's
// current time; the clock is advanced to the last chunk's completion.
type Storage interface {
	// ReadAt fills p from offset off.
	ReadAt(clock *vtime.Clock, p []byte, off int64) error
	// WriteAt stores p at offset off, growing the store if needed.
	WriteAt(clock *vtime.Clock, p []byte, off int64) error
	// Size returns the current store size in bytes.
	Size() int64
	// Device returns the device model the store charges, or nil.
	Device() *Device
	// Close releases underlying resources.
	Close() error
}

// FileStore is a Storage backed by an ordinary file: the offloaded arrays
// really are written to and read back from the filesystem, so the access
// pattern the OS sees matches the paper's implementation.
type FileStore struct {
	f     *os.File
	dev   *Device
	chunk int
	path  string
	size  int64
}

// CreateFileStore creates (truncating) a file-backed store at path whose
// requests are charged to dev. chunk <= 0 selects DefaultChunkSize.
func CreateFileStore(path string, dev *Device, chunk int) (*FileStore, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("nvm: create store: %w", err)
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &FileStore{f: f, dev: dev, chunk: chunk, path: path}, nil
}

// OpenFileStore opens an existing store file read-write.
func OpenFileStore(path string, dev *Device, chunk int) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("nvm: open store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: stat store: %w", err)
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &FileStore{f: f, dev: dev, chunk: chunk, path: path, size: st.Size()}, nil
}

// Path returns the backing file's path.
func (s *FileStore) Path() string { return s.path }

// Device returns the device model charged by this store (may be nil in
// tests that only exercise the data path).
func (s *FileStore) Device() *Device { return s.dev }

// Size returns the store's current size in bytes.
func (s *FileStore) Size() int64 { return s.size }

// ReadAt implements Storage. The read is split into chunks of at most the
// store's chunk size; each chunk is one positioned read and one device
// request.
func (s *FileStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	for len(p) > 0 {
		n := len(p)
		if n > s.chunk {
			n = s.chunk
		}
		if _, err := s.f.ReadAt(p[:n], off); err != nil {
			return fmt.Errorf("nvm: read store %s @%d: %w", s.path, off, err)
		}
		if s.dev != nil && clock != nil {
			clock.AdvanceTo(s.dev.Read(clock.Now(), n))
		}
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt implements Storage.
func (s *FileStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if off < 0 || int64(len(p)) > math.MaxInt64-off {
		return fmt.Errorf("nvm: write store %s: %d bytes at offset %d out of range", s.path, len(p), off)
	}
	end := off + int64(len(p))
	for len(p) > 0 {
		n := len(p)
		if n > s.chunk {
			n = s.chunk
		}
		if _, err := s.f.WriteAt(p[:n], off); err != nil {
			return fmt.Errorf("nvm: write store %s @%d: %w", s.path, off, err)
		}
		if s.dev != nil && clock != nil {
			clock.AdvanceTo(s.dev.Write(clock.Now(), n))
		}
		p = p[n:]
		off += int64(n)
	}
	if end > s.size {
		s.size = end
	}
	return nil
}

// Close closes the backing file.
func (s *FileStore) Close() error { return s.f.Close() }

// Kind implements Layer.
func (s *FileStore) Kind() string { return "file" }

// Unwrap implements Layer: a base store wraps nothing.
func (s *FileStore) Unwrap() Storage { return nil }

// AppendCounters implements Layer.
func (s *FileStore) AppendCounters(dst []Counter) []Counter {
	return append(dst,
		Counter{Name: "bytes", Value: s.Size(), Gauge: true},
	)
}

// MemStore is a Storage backed by an in-memory byte slice. It charges the
// same device model as FileStore and is used by tests and by callers that
// want the timing model without filesystem traffic. The slice's length is
// the store's size; its capacity grows geometrically, so appending n bytes
// in any number of writes costs O(n) host time.
type MemStore struct {
	dev   *Device
	chunk int
	name  string
	buf   []byte
}

// NewMemStore returns an empty in-memory store charging dev (which may be
// nil). chunk <= 0 selects DefaultChunkSize.
func NewMemStore(dev *Device, chunk int) *MemStore {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &MemStore{dev: dev, chunk: chunk, name: "memstore"}
}

// NewNamedMemStore is NewMemStore with a store name carried into error
// messages, so a failing replica of a mirrored array is identifiable.
func NewNamedMemStore(name string, dev *Device, chunk int) *MemStore {
	s := NewMemStore(dev, chunk)
	s.name = name
	return s
}

// Device returns the device model charged by this store (may be nil).
func (s *MemStore) Device() *Device { return s.dev }

// Size returns the store's current size in bytes.
func (s *MemStore) Size() int64 { return int64(len(s.buf)) }

// ReadAt implements Storage.
func (s *MemStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	// Compared without forming off+len(p), which wraps negative for an
	// offset near math.MaxInt64.
	if size := int64(len(s.buf)); off < 0 || off > size || int64(len(p)) > size-off {
		return fmt.Errorf("nvm: %s: read of %d bytes at offset %d out of range [0,%d)",
			s.name, len(p), off, size)
	}
	copy(p, s.buf[off:])
	if s.dev != nil && clock != nil {
		for n := len(p); n > 0; {
			c := n
			if c > s.chunk {
				c = s.chunk
			}
			clock.AdvanceTo(s.dev.Read(clock.Now(), c))
			n -= c
		}
	}
	return nil
}

// WriteAt implements Storage.
func (s *MemStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if off < 0 || int64(len(p)) > math.MaxInt64-off {
		return fmt.Errorf("nvm: %s: write of %d bytes at offset %d out of range", s.name, len(p), off)
	}
	if end := off + int64(len(p)); end > int64(len(s.buf)) {
		if end > int64(cap(s.buf)) {
			// Geometric growth: a run of appends copies each byte O(1)
			// times instead of once per write.
			grown := make([]byte, len(s.buf), max(end, int64(cap(s.buf))*3/2))
			copy(grown, s.buf)
			s.buf = grown
		}
		// len never shrinks, so the bytes between len and cap have never
		// been written: a gap below off is already zero.
		s.buf = s.buf[:end]
	}
	copy(s.buf[off:], p)
	if s.dev != nil && clock != nil {
		for n := len(p); n > 0; {
			c := n
			if c > s.chunk {
				c = s.chunk
			}
			clock.AdvanceTo(s.dev.Write(clock.Now(), c))
			n -= c
		}
	}
	return nil
}

// Close implements Storage; it is a no-op for MemStore.
func (s *MemStore) Close() error { return nil }

// Kind implements Layer.
func (s *MemStore) Kind() string { return "mem" }

// Unwrap implements Layer: a base store wraps nothing.
func (s *MemStore) Unwrap() Storage { return nil }

// AppendCounters implements Layer.
func (s *MemStore) AppendCounters(dst []Counter) []Counter {
	return append(dst,
		Counter{Name: "bytes", Value: s.Size(), Gauge: true},
	)
}

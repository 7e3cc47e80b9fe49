package nvm

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"semibfs/internal/vtime"
)

func stores(t *testing.T, dev *Device, chunk int) map[string]Storage {
	t.Helper()
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "s.bin"), dev, chunk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Storage{
		"file": fs,
		"mem":  NewMemStore(dev, chunk),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t, nil, 0) {
		t.Run(name, func(t *testing.T) {
			data := make([]byte, 10000)
			for i := range data {
				data[i] = byte(i * 7)
			}
			if err := s.WriteAt(nil, data, 0); err != nil {
				t.Fatal(err)
			}
			if s.Size() != 10000 {
				t.Fatalf("Size = %d", s.Size())
			}
			got := make([]byte, 10000)
			if err := s.ReadAt(nil, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round-trip mismatch")
			}
			// Partial read at an odd offset.
			got = make([]byte, 100)
			if err := s.ReadAt(nil, got, 4321); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[4321:4421]) {
				t.Fatal("offset read mismatch")
			}
		})
	}
}

func TestStoreChunkedRequestCount(t *testing.T) {
	// A 10000-byte read with 4 KiB chunks must issue 3 device requests
	// (4096 + 4096 + 1808).
	for name, s := range stores(t, nil, 0) {
		t.Run(name, func(t *testing.T) {
			dev := NewDevice(testProfile, 0)
			var st Storage
			switch name {
			case "file":
				var err error
				st, err = CreateFileStore(filepath.Join(t.TempDir(), "c.bin"), dev, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
			case "mem":
				st = NewMemStore(dev, 0)
			}
			_ = s
			data := make([]byte, 10000)
			clock := vtime.NewClock(0)
			if err := st.WriteAt(clock, data, 0); err != nil {
				t.Fatal(err)
			}
			w := dev.Snapshot().Writes
			if w != 3 {
				t.Fatalf("writes = %d, want 3", w)
			}
			if err := st.ReadAt(clock, data, 0); err != nil {
				t.Fatal(err)
			}
			r := dev.Snapshot().Reads
			if r != 3 {
				t.Fatalf("reads = %d, want 3", r)
			}
			if clock.Now() == 0 {
				t.Fatal("clock not advanced by charged I/O")
			}
		})
	}
}

func TestStoreClockAdvancesMonotonically(t *testing.T) {
	dev := NewDevice(testProfile, 0)
	s := NewMemStore(dev, 0)
	clock := vtime.NewClock(0)
	if err := s.WriteAt(clock, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	t1 := clock.Now()
	if err := s.ReadAt(clock, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() <= t1 {
		t.Fatal("read did not advance the clock")
	}
}

func TestStoreNilClockAndDevice(t *testing.T) {
	// Data path must work without any timing model.
	s := NewMemStore(nil, 0)
	if err := s.WriteAt(nil, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := s.ReadAt(nil, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestMemStoreGrowth(t *testing.T) {
	s := NewMemStore(nil, 0)
	if err := s.WriteAt(nil, []byte{1, 2, 3}, 100); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 103 {
		t.Fatalf("Size = %d", s.Size())
	}
	// The gap reads as zeros.
	got := make([]byte, 103)
	if err := s.ReadAt(nil, got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[99] != 0 || got[100] != 1 || got[102] != 3 {
		t.Fatal("gap or payload mismatch")
	}
}

func TestMemStoreOutOfRangeRead(t *testing.T) {
	s := NewMemStore(nil, 0)
	if err := s.WriteAt(nil, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(nil, make([]byte, 2), 0); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := s.ReadAt(nil, make([]byte, 1), -1); err == nil {
		t.Fatal("negative offset read succeeded")
	}
	if err := s.WriteAt(nil, []byte{1}, -1); err == nil {
		t.Fatal("negative offset write succeeded")
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.bin")
	s, err := CreateFileStore(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(nil, []byte("persisted"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Size() != 9 {
		t.Fatalf("reopened Size = %d", s2.Size())
	}
	got := make([]byte, 9)
	if err := s2.ReadAt(nil, got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persisted" {
		t.Fatalf("got %q", got)
	}
	if s2.Path() != path {
		t.Fatalf("Path = %q", s2.Path())
	}
}

func TestOpenFileStoreMissing(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "nope.bin"), nil, 0); err == nil {
		t.Fatal("opening a missing store succeeded")
	}
}

func TestQuickStoreRoundTrip(t *testing.T) {
	s := NewMemStore(nil, 64) // small chunks to exercise splitting
	f := func(data []byte, offRaw uint16) bool {
		off := int64(offRaw) % 1000
		if err := s.WriteAt(nil, data, off); err != nil {
			return false
		}
		if len(data) == 0 {
			return true
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(nil, got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDeviceAccessor(t *testing.T) {
	dev := NewDevice(testProfile, 0)
	if NewMemStore(dev, 0).Device() != dev {
		t.Fatal("MemStore.Device")
	}
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "d.bin"), dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Device() != dev {
		t.Fatal("FileStore.Device")
	}
}

func TestStoreOffsetOverflow(t *testing.T) {
	// off+len(p) wraps negative here; both methods must report the range
	// error, not slice with a wrapped bound.
	const off = math.MaxInt64 - 3
	for name, s := range stores(t, nil, 0) {
		t.Run(name, func(t *testing.T) {
			if err := s.WriteAt(nil, []byte("resident"), 0); err != nil {
				t.Fatal(err)
			}
			if err := s.ReadAt(nil, make([]byte, 8), off); err == nil {
				t.Error("read at an offset whose end overflows succeeded")
			}
			if err := s.WriteAt(nil, make([]byte, 8), off); err == nil {
				t.Error("write at an offset whose end overflows succeeded")
			}
			if s.Size() != 8 {
				t.Errorf("Size = %d after rejected requests, want 8", s.Size())
			}
		})
	}
}

func TestMemStoreAppendIsAmortised(t *testing.T) {
	const writes, block = 4096, 4096
	p := bytes.Repeat([]byte{0xA5}, block)
	s := NewMemStore(nil, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < writes; i++ {
		if err := s.WriteAt(nil, p, i*block); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if s.Size() != writes*block {
		t.Fatalf("Size = %d, want %d", s.Size(), writes*block)
	}
	// Geometric growth reallocates O(log n) times and copies O(n) bytes;
	// exact-size growth does one allocation per write and ~32 GiB in all.
	if allocs := after.Mallocs - before.Mallocs; allocs > 64 {
		t.Errorf("%d appends made %d allocations, want O(log n) <= 64", writes, allocs)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total >= 4*writes*block {
		t.Errorf("%d appends allocated %d bytes in total, want < 4x the final %d", writes, total, writes*block)
	}
}

func TestMemStoreSizeFollowsLenNotCap(t *testing.T) {
	s := NewMemStore(nil, 0)
	ones := bytes.Repeat([]byte{0xFF}, 1000)
	for i := int64(0); i < 5; i++ {
		if err := s.WriteAt(nil, ones, i*1000); err != nil {
			t.Fatal(err)
		}
	}
	if cap(s.buf)-len(s.buf) < 200 {
		t.Fatalf("len %d cap %d: the test needs capacity slack", len(s.buf), cap(s.buf))
	}
	// A read may not reach into the slack.
	if err := s.ReadAt(nil, make([]byte, 2), 4999); err == nil {
		t.Fatal("read past Size into capacity slack succeeded")
	}
	// A sparse write that lands inside the slack leaves a zero gap.
	if err := s.WriteAt(nil, []byte{7}, 5100); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 5101 {
		t.Fatalf("Size = %d, want 5101", s.Size())
	}
	got := make([]byte, 102)
	if err := s.ReadAt(nil, got, 4999); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{0xFF}, make([]byte, 100)...), 7)
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes [4999,5101) = %v, want 0xFF, 100 zeros, 7", got)
	}
	if err := s.ReadAt(nil, make([]byte, 1), 5101); err == nil {
		t.Fatal("read past the new Size succeeded")
	}
}

// BenchmarkMemStoreAppend is the offload's write pattern: 16 MiB appended
// in 4 KiB writes to a fresh store.
func BenchmarkMemStoreAppend(b *testing.B) {
	const total, block = 16 << 20, 4096
	p := make([]byte, block)
	b.SetBytes(total)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewMemStore(nil, 0)
		for off := int64(0); off < total; off += block {
			if err := s.WriteAt(nil, p, off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

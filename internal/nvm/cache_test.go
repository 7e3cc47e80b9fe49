package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// fillStore writes a deterministic pattern of n bytes to s.
func fillStore(t *testing.T, s Storage, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i/256)
	}
	if err := s.WriteAt(nil, data, 0); err != nil {
		t.Fatalf("fill store: %v", err)
	}
	return data
}

// addCounters returns a plus b counter-wise, keeping a's configuration
// fields: the inverse of CacheStats.Sub.
func addCounters(a, b CacheStats) CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.HitBytes += b.HitBytes
	a.FillBytes += b.FillBytes
	a.Evictions += b.Evictions
	a.Prefetches += b.Prefetches
	a.PrefetchHits += b.PrefetchHits
	return a
}

func TestCachedStoreRoundTrip(t *testing.T) {
	dev := NewDevice(ProfileIoDrive2, 0)
	inner := NewMemStore(dev, 0)
	data := fillStore(t, inner, 3*DefaultChunkSize+123)

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)

	// Unaligned reads of assorted sizes, twice each (second pass hits).
	spans := [][2]int64{{0, 1}, {5, 100}, {4090, 20}, {0, int64(len(data))}, {8192, int64(len(data)) - 8192}}
	for pass := 0; pass < 2; pass++ {
		for _, sp := range spans {
			got := make([]byte, sp[1])
			if err := cs.ReadAt(clock, got, sp[0]); err != nil {
				t.Fatalf("pass %d read [%d,%d): %v", pass, sp[0], sp[0]+sp[1], err)
			}
			if !bytes.Equal(got, data[sp[0]:sp[0]+sp[1]]) {
				t.Fatalf("pass %d read [%d,%d): data mismatch", pass, sp[0], sp[0]+sp[1])
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	// The whole store is 4 blocks; everything after the first full pass
	// must come from cache.
	if st.Misses > 4 {
		t.Fatalf("expected at most 4 misses (one per block), got %d", st.Misses)
	}
	if hr := st.HitRate(); hr <= 0.5 {
		t.Fatalf("expected hit rate > 0.5, got %g", hr)
	}
}

func TestCacheHitsSkipDevice(t *testing.T) {
	dev := NewDevice(ProfileIoDrive2, 0)
	inner := NewMemStore(dev, 0)
	fillStore(t, inner, 4*DefaultChunkSize)
	dev.Reset()

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)

	buf := make([]byte, DefaultChunkSize)
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	missTime := clock.Now()
	if got := dev.Snapshot().Reads; got != 1 {
		t.Fatalf("miss should issue exactly 1 device read, got %d", got)
	}

	before := clock.Now()
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	hitCost := clock.Now() - before
	if got := dev.Snapshot().Reads; got != 1 {
		t.Fatalf("hit must not touch the device, got %d reads", got)
	}
	// A hit charges only the DRAM stream cost: 4 KiB / 64 B * 8 ns = 512.
	want := numa.DefaultCostModel.Stream(DefaultChunkSize)
	if hitCost != want {
		t.Fatalf("hit cost = %v, want stream cost %v", hitCost, want)
	}
	if hitCost >= missTime {
		t.Fatalf("hit (%v) should be far cheaper than the miss (%v)", hitCost, missTime)
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	inner := NewMemStore(nil, 0)
	const blocks = 64
	fillStore(t, inner, blocks*DefaultChunkSize)

	// Budget of 8 pages, all in play.
	c := NewPageCache(8*DefaultChunkSize, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)

	buf := make([]byte, DefaultChunkSize)
	for i := 0; i < blocks; i++ {
		if err := cs.ReadAt(clock, buf, int64(i)*DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	if got, budget := int64(c.Pages())*c.BlockBytes(), c.CapacityBytes(); got > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", got, budget)
	}
	st := c.Stats()
	if st.Misses != blocks {
		t.Fatalf("expected %d misses, got %d", blocks, st.Misses)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with %d blocks over an 8-page budget", blocks)
	}
}

func TestCacheClockSecondChance(t *testing.T) {
	inner := NewMemStore(nil, 0)
	const blocks = 32
	fillStore(t, inner, blocks*DefaultChunkSize)

	// Single shard would make this exact; with 16 shards we instead pin a
	// hot block by re-touching it between every insertion and check it
	// still hits at the end while cold blocks were evicted around it.
	c := NewPageCache(8*DefaultChunkSize, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)
	buf := make([]byte, DefaultChunkSize)

	if err := cs.ReadAt(clock, buf, 0); err != nil { // hot block 0
		t.Fatal(err)
	}
	for i := 1; i < blocks; i++ {
		if err := cs.ReadAt(clock, buf, int64(i)*DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
		if err := cs.ReadAt(clock, buf, 0); err != nil { // keep block 0 referenced
			t.Fatal(err)
		}
	}
	missesBefore := c.Stats().Misses
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != missesBefore {
		t.Fatalf("hot block was evicted despite constant references")
	}
}

// failingStore returns an error for the first n reads, then succeeds.
type failingStore struct {
	*MemStore
	fails int
	reads int
}

func (s *failingStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.reads++; s.reads <= s.fails {
		return &CorruptionError{Block: off / DefaultChunkSize, Off: off}
	}
	return s.MemStore.ReadAt(clock, p, off)
}

func TestCacheNeverCachesErrors(t *testing.T) {
	mem := NewMemStore(nil, 0)
	data := fillStore(t, mem, DefaultChunkSize)
	inner := &failingStore{MemStore: mem, fails: 2}

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)
	buf := make([]byte, DefaultChunkSize)

	// Two failing reads must surface the error and leave nothing cached.
	for i := 0; i < 2; i++ {
		if err := cs.ReadAt(clock, buf, 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read %d: want ErrCorrupt, got %v", i, err)
		}
		if c.Pages() != 0 {
			t.Fatalf("read %d: failed fill left %d pages cached", i, c.Pages())
		}
	}
	// Third read succeeds and is cached.
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("recovered read returned wrong data")
	}
	if c.Pages() != 1 {
		t.Fatalf("successful read should cache 1 page, got %d", c.Pages())
	}
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("want 1 hit after recovery, got %+v", st)
	}
}

func TestCacheWriteInvalidates(t *testing.T) {
	inner := NewMemStore(nil, 0)
	fillStore(t, inner, 2*DefaultChunkSize)

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)

	buf := make([]byte, DefaultChunkSize)
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xAB}, 100)
	if err := cs.WriteAt(clock, fresh, 50); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := cs.ReadAt(clock, got, 50); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read after write returned stale cached data")
	}
}

// TestCacheFillRunInvalidationRace: a write-through over pages a coalesced
// FillRunAt installed drops exactly the written one, so a read across the
// run returns the new bytes for it and the run's bytes for its neighbours.
func TestCacheFillRunInvalidationRace(t *testing.T) {
	const block = 64
	c := NewPageCache(16*block, block, numa.CostModel{})
	cs := c.Wrap(NewNamedMemStore("data", nil, block))
	clock := vtime.NewClock(0)
	want := bytes.Repeat([]byte{0x0A}, 3*block)
	if err := cs.WriteAt(clock, want, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if blocks, runs, _ := cs.FillRunAt(0, 0, 3*block); blocks != 3 || runs != 1 {
		t.Fatalf("FillRunAt filled %d blocks in %d runs, want 3 in 1", blocks, runs)
	}

	copy(want[block:2*block], bytes.Repeat([]byte{0x0B}, block))
	if err := cs.WriteAt(clock, want[block:2*block], block); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got := c.Pages(); got != 2 {
		t.Fatalf("%d pages cached after rewriting one of a 3-block run, want 2", got)
	}
	got := make([]byte, 3*block)
	if err := cs.ReadAt(clock, got, 0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read after rewrite returned % x, want % x", got, want)
	}
}

func TestCachePrefetchAccounting(t *testing.T) {
	dev := NewDevice(ProfileIoDrive2, 0)
	inner := NewMemStore(dev, 0)
	data := fillStore(t, inner, 8*DefaultChunkSize)
	dev.Reset()

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)

	// Prefetch 4 blocks: the worker's clock must not advance, but the
	// device must see the requests.
	cs.Prefetch(clock, 0, 4*DefaultChunkSize)
	if clock.Now() != 0 {
		t.Fatalf("prefetch advanced the issuing clock to %v", clock.Now())
	}
	if got := dev.Snapshot().Reads; got != 4 {
		t.Fatalf("prefetch of 4 blocks: want 4 device reads, got %d", got)
	}
	st := c.Stats()
	if st.Prefetches != 4 || st.Misses != 0 {
		t.Fatalf("want 4 prefetches and 0 misses, got %+v", st)
	}

	// A demand read of a prefetched block is a hit, but advances to the
	// fill's completion time (the prefetch was still in flight at t=0).
	buf := make([]byte, DefaultChunkSize)
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[:DefaultChunkSize]) {
		t.Fatal("prefetched data mismatch")
	}
	if clock.Now() == 0 {
		t.Fatal("demand read of in-flight prefetch should advance to fill completion")
	}
	st = c.Stats()
	if st.Hits != 1 || st.PrefetchHits != 1 {
		t.Fatalf("want 1 hit / 1 prefetch hit, got %+v", st)
	}

	// Prefetch past EOF and over already-cached blocks is a no-op.
	cs.Prefetch(clock, 0, 100*DefaultChunkSize)
	if got := dev.Snapshot().Reads; got != 8 {
		t.Fatalf("re-prefetch should only fill the 4 uncached blocks, got %d total reads", got)
	}
}

func TestCacheResetAndStatsDelta(t *testing.T) {
	inner := NewMemStore(nil, 0)
	fillStore(t, inner, 4*DefaultChunkSize)

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)
	clock := vtime.NewClock(0)
	buf := make([]byte, DefaultChunkSize)

	for i := 0; i < 4; i++ {
		if err := cs.ReadAt(clock, buf, int64(i)*DefaultChunkSize); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	delta := c.Stats().Sub(before)
	if delta.Hits != 1 || delta.Misses != 0 {
		t.Fatalf("delta = %+v, want exactly 1 hit", delta)
	}
	if sum := addCounters(before, delta); sum != c.Stats() {
		t.Fatalf("before plus delta is %+v, want %+v", sum, c.Stats())
	}

	c.Reset()
	if c.Pages() != 0 {
		t.Fatalf("Reset left %d pages", c.Pages())
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Reset left counters %+v", st)
	}
	// Post-reset reads start cold again.
	if err := cs.ReadAt(clock, buf, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("post-reset read should miss, got %+v", st)
	}
}

func TestCacheChecksumComposition(t *testing.T) {
	// Corrupt media under a ChecksumStore under the cache: the checksum
	// error must pass through and the corrupt block must never be cached.
	dev := NewDevice(ProfileIoDrive2, 0)
	mem := NewMemStore(dev, 0)
	ck, err := WrapChecksum(mem, DefaultChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	clock := vtime.NewClock(0)
	data := make([]byte, 2*DefaultChunkSize)
	for i := range data {
		data[i] = byte(i)
	}
	if err := ck.WriteAt(clock, data, 0); err != nil {
		t.Fatal(err)
	}

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(ck)

	// Flip a bit in block 1's media behind the checksum layer.
	corrupt := []byte{data[DefaultChunkSize] ^ 0x01}
	if err := mem.WriteAt(clock, corrupt, int64(DefaultChunkSize)); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, DefaultChunkSize)
	if err := cs.ReadAt(clock, buf, int64(DefaultChunkSize)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want checksum failure through the cache, got %v", err)
	}
	if c.Pages() != 0 {
		t.Fatalf("corrupt block was cached (%d pages)", c.Pages())
	}
	// Repair the media; the read must now succeed (nothing poisoned).
	if err := mem.WriteAt(clock, []byte{data[DefaultChunkSize]}, int64(DefaultChunkSize)); err != nil {
		t.Fatal(err)
	}
	if err := cs.ReadAt(clock, buf, int64(DefaultChunkSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[DefaultChunkSize:2*DefaultChunkSize]) {
		t.Fatal("repaired read returned wrong data")
	}
}

// BenchmarkCachedStoreHit: page-cache hits through metrics → retry →
// cache, the stack a cached forward graph is read through, at the two
// sizes a bottom-up vertex reads: its 16-byte index bracket and a 4 KiB
// value chunk. Every block is resident, and the reads walk 64 blocks
// (256 KiB, inside the host's caches) or 4,096 (16 MiB, beyond them).
func BenchmarkCachedStoreHit(b *testing.B) {
	for _, blocks := range []int{64, 4096} {
		for _, n := range []int{16, DefaultChunkSize} {
			b.Run(fmt.Sprintf("%dKiB/%dB", blocks*DefaultChunkSize>>10, n), func(b *testing.B) {
				dev := NewDevice(ProfileIoDrive2, 0)
				st, err := BuildStack(StackSpec{
					Name:  "hit",
					Cache: NewPageCache(int64(blocks)*DefaultChunkSize, 0, numa.CostModel{}),
					Base: func(name string, chunk int) (Storage, error) {
						return NewNamedMemStore(name, dev, chunk), nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := st.WriteAt(nil, make([]byte, blocks*DefaultChunkSize), 0); err != nil {
					b.Fatal(err)
				}
				clock := vtime.NewClock(0)
				buf := make([]byte, n)
				// off walks the blocks, and the 16-byte reads within them.
				off := func(i int) int64 {
					return int64(i%blocks)*DefaultChunkSize + int64(i/blocks*n%DefaultChunkSize)
				}
				for i := range blocks {
					if err := st.ReadAt(clock, buf, off(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := range b.N {
					if err := st.ReadAt(clock, buf, off(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

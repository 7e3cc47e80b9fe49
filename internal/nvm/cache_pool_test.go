package nvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// The buffer-pool tests: what recycling page frames could break (a reader
// handed bytes of a frame that has moved on to another block) and what it
// promises (a read path that allocates nothing, and no more frames than the
// budget has pages).

// offsetByte is the byte a store holds at off in its gen-th version.
func offsetByte(off int64, gen uint64) byte { return pinByte(0, off, gen) }

// offsetStore returns a MemStore of n bytes holding version 0.
func offsetStore(t *testing.T, dev *Device, block int, n int64) *MemStore {
	t.Helper()
	data := make([]byte, n)
	for off := range data {
		data[off] = offsetByte(int64(off), 0)
	}
	mem := NewMemStore(dev, block)
	if err := mem.WriteAt(nil, data, 0); err != nil {
		t.Fatalf("seed store: %v", err)
	}
	return mem
}

// framesAllocated sums the frames the cache's shards have ever allocated.
func framesAllocated(c *PageCache) int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.frames
		s.mu.Unlock()
	}
	return n
}

// TestCacheFramesRecycledUnderContention: six readers and two writers on an
// 8-page cache over a 256-block store, so every frame is recycled thousands
// of times while somebody is reading. The store's bytes are a function of
// their offset, the writers replace it block by block with a second such
// function, and every byte any reader gets must be one of the two for its
// offset — a frame that changed hands mid-copy would show another offset's
// bytes — and, once the writers are done, the newer one.
func TestCacheFramesRecycledUnderContention(t *testing.T) {
	const (
		block   = 128
		blocks  = 256
		size    = block * blocks
		readers = 6
		writers = 2
	)
	cache := NewPageCache(8*block, block, numa.CostModel{})
	cs := cache.Wrap(offsetStore(t, nil, block, size))

	// check reads [off, off+n) and reports the first byte that is neither
	// version (newest: that is not version 1).
	check := func(clock *vtime.Clock, buf []byte, off, n int64, newest bool) {
		if err := cs.ReadAt(clock, buf[:n], off); err != nil {
			t.Errorf("read [%d,%d): %v", off, off+n, err)
			return
		}
		for k, b := range buf[:n] {
			at := off + int64(k)
			if b != offsetByte(at, 1) && (newest || b != offsetByte(at, 0)) {
				t.Errorf("read [%d,%d) (newest %v): byte at %d is %#x, want %#x or %#x",
					off, off+n, newest, at, b, offsetByte(at, 0), offsetByte(at, 1))
				return
			}
		}
	}

	var writing atomic.Int32
	var overlapped atomic.Int64 // reads checked while a writer was running
	writing.Store(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			// Each writer owns every writers-th block, rewritten one block
			// per call; writers and readers yield while they overlap, so
			// they interleave on one scheduler thread too.
			buf := make([]byte, block)
			clock := vtime.NewClock(0)
			for b := int64(w); b < blocks; b += writers {
				for k := range buf {
					buf[k] = offsetByte(b*block+int64(k), 1)
				}
				if err := cs.WriteAt(clock, buf, b*block); err != nil {
					t.Errorf("write block %d: %v", b, err)
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := rng.NewXoroshiro128(uint64(r + 1))
			clock := vtime.NewClock(0)
			buf := make([]byte, 3*block)
			// Keep going for a while after the writers stop, so the newest
			// bytes are also checked under reader-only contention.
			for after := 0; after < 2000; {
				done := writing.Load() == 0
				if done {
					after++
				} else {
					runtime.Gosched()
				}
				off := int64(g.Uint64n(size - 3*block))
				n := 1 + int64(g.Uint64n(3*block))
				switch g.Uint64n(4) {
				case 0:
					cs.Prefetch(clock, off, n)
				case 1:
					cs.FillRunAt(clock.Now(), off, 4*block)
				default:
					check(clock, buf, off, n, done)
					if !done {
						overlapped.Add(1)
					}
				}
			}
		}(r)
	}
	wg.Wait()

	clock := vtime.NewClock(0)
	buf := make([]byte, 3*block)
	for off := int64(0); off < size; off += 3 * block {
		check(clock, buf, off, min(3*block, size-off), true)
	}
	if st := cache.Stats(); st.Evictions == 0 || st.Hits == 0 || overlapped.Load() == 0 {
		t.Fatalf("the trace recycled nothing, hit nothing or never read beside a writer (%d reads): %v",
			overlapped.Load(), st)
	}
}

// TestPageCacheSteadyStateAllocs: once a cache's frames, free lists and
// pooled run scratch exist, a hit, a miss that evicts, a Prefetch and a
// four-block coalesced FillRunAt allocate nothing.
func TestPageCacheSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const (
		block  = 256
		blocks = 512
	)
	dev := NewDevice(ProfileIoDrive2, 0)
	cache := NewPageCache(16*block, block, numa.CostModel{})
	cs := cache.Wrap(offsetStore(t, dev, block, block*blocks))
	clock := vtime.NewClock(0)
	buf := make([]byte, block)
	read := func(b int64) {
		if err := cs.ReadAt(clock, buf, b*block); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: fill every frame, and run each operation once.
	var next int64
	advance := func(n int64) int64 {
		b := next
		next = (next + n) % (blocks - 4)
		return b
	}
	for i := 0; i < 64; i++ {
		read(advance(1))
	}
	cs.FillRunAt(clock.Now(), advance(4)*block, 4*block)
	cs.Prefetch(clock, advance(1)*block, block)
	read(next - 1)

	for _, op := range []struct {
		name string
		run  func()
		// want is what one call must add to the counters: each operation
		// has to be what its name says.
		want CacheStats
	}{
		{"hit", func() { read(next - 1) }, CacheStats{Hits: 1, HitBytes: block}},
		{"miss that evicts", func() { read(advance(1)) },
			CacheStats{Misses: 1, FillBytes: block, Evictions: 1}},
		{"Prefetch", func() { cs.Prefetch(clock, advance(1)*block, block) },
			CacheStats{Prefetches: 1, FillBytes: block, Evictions: 1}},
		{"4-block FillRunAt", func() { cs.FillRunAt(clock.Now(), advance(4)*block, 4*block) },
			CacheStats{Prefetches: 4, FillBytes: 4 * block, Evictions: 4}},
	} {
		before := cache.Stats()
		const runs = 100
		if allocs := testing.AllocsPerRun(runs, op.run); allocs > 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", op.name, allocs)
		}
		// AllocsPerRun makes one warm-up call of its own.
		want := before
		for i := 0; i <= runs; i++ {
			want = want.Add(op.want)
		}
		if got := cache.Stats(); got != want {
			t.Errorf("%s: after %d calls the counters are %+v, want %+v", op.name, runs+1, got, want)
		}
	}
}

// TestCacheFrameBudget: the cache's real memory is its budget. After 10^5
// churned reads it has allocated no more frames than it has pages — a
// shard only exceeds its share while every one of its pages is in flight,
// which one goroutine reading at most three blocks at a time cannot cause.
func TestCacheFrameBudget(t *testing.T) {
	const (
		block  = 64
		blocks = 1024
		pages  = 40
	)
	cache := NewPageCache(pages*block, block, numa.CostModel{})
	cs := cache.Wrap(offsetStore(t, nil, block, block*blocks))
	if got := framesAllocated(cache); got != 0 {
		t.Fatalf("a new cache has %d frames, want none until first use", got)
	}
	g := rng.NewXoroshiro128(7)
	clock := vtime.NewClock(0)
	buf := make([]byte, 3*block)
	for i := 0; i < 100000; i++ {
		off := int64(g.Uint64n(block*blocks - 3*block))
		n := 1 + int64(g.Uint64n(3*block))
		switch i % 16 {
		case 0:
			cs.Prefetch(clock, off, n)
		case 1:
			if err := cs.WriteAt(clock, buf[:n], off); err != nil {
				t.Fatal(err)
			}
		case 2:
			if i%4096 == 2 {
				cache.Reset()
			}
		default:
			if err := cs.ReadAt(clock, buf[:n], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := framesAllocated(cache); got > pages {
		t.Errorf("%d frames allocated by a %d-page cache", got, pages)
	}
	if got := cache.Pages(); got > pages {
		t.Errorf("%d pages resident in a %d-page cache", got, pages)
	}
	if cache.Stats().Evictions == 0 {
		t.Errorf("the trace evicted nothing")
	}
}

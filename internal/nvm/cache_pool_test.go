package nvm

import (
	"runtime"
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
		n += c.shards[i].frames
	}
	return n
}

// TestCacheFramesRecycledUnderContention: six readers and two writers on an
// 8-page cache over a 256-block store, each with its own clock, take turns
// in a seeded order, so every frame is recycled thousands of times between
// one reader's reads. The store's bytes are a function of their offset, the
// writers replace it block by block with a second such function, and every
// byte any reader gets must be one of the two for its offset — a frame that
// changed hands would show another offset's bytes — and, once the writers
// are done, the newer one. The cache never holds more frames than pages.
func TestCacheFramesRecycledUnderContention(t *testing.T) {
	const (
		block   = 128
		blocks  = 256
		size    = block * blocks
		readers = 6
		writers = 2
		pages   = 8
	)
	cache := NewPageCache(pages*block, block, numa.CostModel{})
	cs := cache.Wrap(offsetStore(t, nil, block, size))

	// check reads [off, off+n) and reports the first byte that is neither
	// version (newest: that is not version 1).
	check := func(clock *vtime.Clock, buf []byte, off, n int64, newest bool) {
		t.Helper()
		if err := cs.ReadAt(clock, buf[:n], off); err != nil {
			t.Fatalf("read [%d,%d): %v", off, off+n, err)
		}
		for k, b := range buf[:n] {
			at := off + int64(k)
			if b != offsetByte(at, 1) && (newest || b != offsetByte(at, 0)) {
				t.Fatalf("read [%d,%d) (newest %v): byte at %d is %#x, want %#x or %#x",
					off, off+n, newest, at, b, offsetByte(at, 0), offsetByte(at, 1))
			}
		}
	}

	type actor struct {
		clock *vtime.Clock
		g     *rng.Xoroshiro128
		next  int64 // a writer's next block
		after int   // a reader's turns since the writers finished
	}
	actors := make([]actor, writers+readers)
	for i := range actors {
		actors[i] = actor{clock: vtime.NewClock(0), g: rng.NewXoroshiro128(uint64(i + 1))}
		if i < writers {
			// Each writer owns every writers-th block.
			actors[i].next = int64(i)
		}
	}
	sched := rng.NewXoroshiro128(2014)
	buf := make([]byte, 3*block)
	writing, overlapped := writers, 0
	for live := len(actors); live > 0; {
		i := int(sched.Uint64n(uint64(len(actors))))
		a := &actors[i]
		switch {
		case i < writers:
			if a.next >= blocks {
				continue
			}
			for k := range buf[:block] {
				buf[k] = offsetByte(a.next*block+int64(k), 1)
			}
			if err := cs.WriteAt(a.clock, buf[:block], a.next*block); err != nil {
				t.Fatalf("write block %d: %v", a.next, err)
			}
			if a.next += writers; a.next >= blocks {
				writing--
				live--
			}
		case a.after >= 2000:
			// Kept going for a while after the writers stopped, so the
			// newest bytes are also checked with only readers turning over
			// the frames.
		default:
			done := writing == 0
			if done {
				if a.after++; a.after == 2000 {
					live--
				}
			}
			off := int64(a.g.Uint64n(size - 3*block))
			n := 1 + int64(a.g.Uint64n(3*block))
			switch a.g.Uint64n(4) {
			case 0:
				cs.Prefetch(a.clock, off, n)
			case 1:
				cs.FillRunAt(a.clock.Now(), off, 4*block)
			default:
				check(a.clock, buf, off, n, done)
				if !done {
					overlapped++
				}
			}
		}
	}

	clock := vtime.NewClock(0)
	for off := int64(0); off < size; off += 3 * block {
		check(clock, buf, off, min(3*block, size-off), true)
	}
	if st := cache.Stats(); st.Evictions == 0 || st.Hits == 0 || overlapped == 0 {
		t.Fatalf("the trace recycled nothing, hit nothing or read nothing beside a writer (%d reads): %v",
			overlapped, st)
	}
	if got := framesAllocated(cache); got > pages {
		t.Errorf("%d frames allocated by a %d-page cache", got, pages)
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
			want = addCounters(want, op.want)
		}
		if got := cache.Stats(); got != want {
			t.Errorf("%s: after %d calls the counters are %+v, want %+v", op.name, runs+1, got, want)
		}
	}
}

// TestCachedStoreReadAfterWriteAllocs: a store wrapped empty and then
// written through its CachedStore has a page table covering what was
// written, so the first read of each of its blocks, each a miss evicting a
// page of a store that warmed every frame, allocates nothing: no table
// growth is left on the read path.
func TestCachedStoreReadAfterWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const (
		block  = 256
		blocks = 64
		pages  = 16
	)
	cache := NewPageCache(pages*block, block, numa.CostModel{})
	warm := cache.Wrap(offsetStore(t, nil, block, 2*pages*block))
	buf := make([]byte, block)
	for b := int64(0); b < 2*pages; b++ {
		if err := warm.ReadAt(nil, buf, b*block); err != nil {
			t.Fatal(err)
		}
	}
	cs := cache.Wrap(NewMemStore(nil, block))
	for b := int64(0); b < blocks; b++ {
		for k := range buf {
			buf[k] = offsetByte(b*block+int64(k), 1)
		}
		if err := cs.WriteAt(nil, buf, b*block); err != nil {
			t.Fatal(err)
		}
	}
	before := cache.Stats()
	// testing.AllocsPerRun rounds its mean down, which would hide a table
	// grown on a few of the reads; count every allocation instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := int64(0); b < blocks; b++ {
		if err := cs.ReadAt(nil, buf, b*block); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n > 0 {
		t.Errorf("reading %d freshly written blocks allocated %d objects, want 0", blocks, n)
	}
	if d := cache.Stats().Sub(before); d.Misses != blocks || d.Hits != 0 || d.Evictions != blocks {
		t.Errorf("the reads were not all first reads that evict: %+v", d)
	}
	if got := framesAllocated(cache); got != pages {
		t.Errorf("%d frames allocated by a %d-page cache, want every one", got, pages)
	}
}

// TestCacheFrameBudget: the cache's real memory is its budget. After 10^5
// churned reads it has allocated no more frames than it has pages — a
// shard only exceeds its share while one FillRunAt has reserved every one
// of its pages, and this trace issues no FillRunAt.
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

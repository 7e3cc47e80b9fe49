package nvm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// The page-cache pins: one goroutine drives a seeded trace of every entry
// point of a PageCache — demand reads of 16 bytes to three blocks,
// Prefetch, FillRunAt, write-through invalidations, one injected read
// error per store and one Reset — over two CachedStores sharing the cache, and the
// counters, the worker's virtual clock, the device's request count and a
// hash of every byte returned must reproduce these constants. Which page
// the GCLOCK hand evicts decides every one of them, so a rewrite of the
// cache's insides that leaves them untouched has not moved a victim. They
// were recorded before page frames were recycled; a change that means to
// move the policy must say so by editing them.

type cachePin struct {
	stats    CacheStats
	clock    int64
	requests int64
	bytes    uint64
}

func (p cachePin) String() string {
	s := p.stats
	return fmt.Sprintf("{CacheStats{%d, %d, %d, %d, %d, %d, %d, %d, %d, %d}, %d, %d, %#x}",
		s.Hits, s.Misses, s.HitBytes, s.FillBytes, s.Evictions, s.Prefetches, s.PrefetchHits,
		s.MergedFills, s.CapacityBytes, s.BlockBytes, p.clock, p.requests, p.bytes)
}

// pinnedCaches holds the pin per cache size in pages: 8 is one shard, 40
// is five.
var pinnedCaches = map[int]cachePin{
	8:  {CacheStats{378, 2681, 96768, 1040860, 3988, 1394, 85, 0, 2048, 256}, 585445354, 12280, 0xd442b5243960b4e2},
	40: {CacheStats{1453, 1586, 371968, 617192, 2017, 831, 167, 0, 10240, 256}, 334323796, 6924, 0xe161f98b731a309c},
}

const (
	pinBlock = 256
	pinOps   = 6000
	// pinFailOp arms the injected read error, pinResetOp resets the cache.
	pinFailOp  = 2000
	pinResetOp = 4000
)

// pinFailStore fails the next inner read once armed.
type pinFailStore struct {
	Storage
	armed bool
}

func (s *pinFailStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.armed {
		s.armed = false
		return &CorruptionError{Store: "pin", Block: off / pinBlock, Off: off}
	}
	return s.Storage.ReadAt(clock, p, off)
}

// pinByte is the byte at offset off of store st after its gen-th rewrite.
func pinByte(st int, off int64, gen uint64) byte {
	return byte(rng.Mix64(uint64(st)<<56 ^ gen<<40 ^ uint64(off)))
}

func runCachePin(t *testing.T, pages int) cachePin {
	t.Helper()
	dev := NewDevice(ProfileIoDrive2, 0)
	cache := NewPageCache(int64(pages)*pinBlock, pinBlock, numa.CostModel{})
	// The second store ends mid-block, so its last page is short.
	sizes := [2]int64{96 * pinBlock, 64*pinBlock + 100}
	var fail [2]*pinFailStore
	var stores [2]*CachedStore
	var model [2][]byte
	for i, size := range sizes {
		model[i] = make([]byte, size)
		for off := range model[i] {
			model[i][off] = pinByte(i, int64(off), 0)
		}
		mem := NewNamedMemStore(fmt.Sprintf("pin%d", i), dev, pinBlock)
		if err := mem.WriteAt(nil, model[i], 0); err != nil {
			t.Fatalf("seed store %d: %v", i, err)
		}
		fail[i] = &pinFailStore{Storage: mem}
		stores[i] = cache.Wrap(fail[i])
	}

	g := rng.NewXoroshiro128(uint64(20140519 + pages))
	clock := vtime.NewClock(0)
	h := fnv.New64a()
	buf := make([]byte, 3*pinBlock)
	// span draws an offset and a length of up to maxLen bytes inside store
	// i; half the draws land in the store's first eight blocks, so the
	// trace has pages worth keeping.
	span := func(i int, minLen, maxLen int64) (off, n int64) {
		limit := sizes[i]
		if g.Uint64n(2) == 0 {
			limit = 8 * pinBlock
		}
		off = int64(g.Uint64n(uint64(limit)))
		n = minLen + int64(g.Uint64n(uint64(maxLen-minLen+1)))
		if off+n > sizes[i] {
			n = sizes[i] - off
		}
		return off, n
	}
	var failed int
	for op := 0; op < pinOps; op++ {
		i := int(g.Uint64n(2))
		switch op {
		case pinFailOp:
			fail[0].armed, fail[1].armed = true, true
		case pinResetOp:
			// Reset zeroes the counters: fold the first phase's into the hash.
			fmt.Fprintf(h, "%+v;", cache.Stats())
			cache.Reset()
		}
		switch kind := g.Uint64n(100); {
		case kind < 60:
			off, n := span(i, 16, 3*pinBlock)
			err := stores[i].ReadAt(clock, buf[:n], off)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("op %d: read store %d [%d,%d): %v", op, i, off, off+n, err)
				}
				failed++
				fmt.Fprintf(h, "err@%d;", op)
				continue
			}
			for k, b := range buf[:n] {
				if b != model[i][off+int64(k)] {
					t.Fatalf("op %d: read store %d [%d,%d): byte %d is %#x, want %#x",
						op, i, off, off+n, k, b, model[i][off+int64(k)])
				}
			}
			h.Write(buf[:n])
		case kind < 72:
			off, n := span(i, 1, 4*pinBlock)
			stores[i].Prefetch(clock, off, n)
		case kind < 84:
			off, n := span(i, 1, 6*pinBlock)
			blocks, runs, ready := stores[i].FillRunAt(clock.Now(), off, n)
			fmt.Fprintf(h, "run %d %d %d;", blocks, runs, int64(ready))
		default:
			off, n := span(i, 1, 2*pinBlock)
			for k := int64(0); k < n; k++ {
				model[i][off+k] = pinByte(i, off+k, uint64(op))
			}
			if err := stores[i].WriteAt(clock, model[i][off:off+n], off); err != nil {
				t.Fatalf("op %d: write store %d [%d,%d): %v", op, i, off, off+n, err)
			}
		}
	}
	if failed == 0 {
		t.Fatalf("the injected read error never surfaced")
	}
	if got := cache.Pages(); got > pages {
		t.Fatalf("%d pages resident in a %d-page cache", got, pages)
	}
	return cachePin{cache.Stats(), int64(clock.Now()), dev.Snapshot().Reads, h.Sum64()}
}

func TestPageCachePins(t *testing.T) {
	for _, pages := range []int{8, 40} {
		got := runCachePin(t, pages)
		if want := pinnedCaches[pages]; got != want {
			t.Errorf("%d pages:\n got %v\nwant %v", pages, got, want)
		}
	}
}

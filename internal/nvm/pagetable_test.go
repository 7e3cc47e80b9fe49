package nvm_test

import (
	"errors"
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// TestPageTableMatchesRings: one goroutine drives a seeded schedule of
// demand reads, Prefetch, FillRunAt, writes, appends and Resets over three
// stores sharing a three-shard cache, and after every step the page tables
// and the CLOCK rings must agree (PageCache.CheckPageTables) and every read
// must return the last write's bytes. The stores cover each way a table is
// sized: store 0 holds data written before Wrap, behind a faults.Store
// failing 5 % of reads transiently, so fills fail and leave the cache;
// store 1 is written through the cache after Wrap and ends 37 bytes into
// its last block; store 2 grows by whole blocks after it was first read,
// appended either through the cache, whose invalidation grows the table, or
// straight to its media, so the fill that first reads them grows it.
func TestPageTableMatchesRings(t *testing.T) {
	const (
		block     = 64
		pages     = 24 // three shards of eight
		ops       = 4000
		maxBlocks = 96 // store 2 stops growing here
	)
	cache := nvm.NewPageCache(pages*block, block, numa.CostModel{})
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	var (
		mems   [3]*nvm.MemStore
		stores [3]*nvm.CachedStore
		model  [3][]byte
	)
	// version returns the first size bytes of store st's gen-th version.
	version := func(st int, size int64, gen uint64) []byte {
		p := make([]byte, size)
		for off := range p {
			p[off] = byte(rng.Mix64(uint64(st)<<56 ^ gen<<40 ^ uint64(off)))
		}
		return p
	}
	for i, size := range [3]int64{40 * block, 20*block + 37, 8 * block} {
		mems[i] = nvm.NewMemStore(dev, block)
		model[i] = version(i, size, 0)
	}
	if err := mems[0].WriteAt(nil, model[0], 0); err != nil {
		t.Fatal(err)
	}
	stores[0] = cache.Wrap(faults.Wrap(mems[0], "table0", faults.Config{Seed: 11, TransientRate: 0.05}))
	for i := 1; i < 3; i++ {
		stores[i] = cache.Wrap(mems[i])
		if err := stores[i].WriteAt(nil, model[i], 0); err != nil {
			t.Fatal(err)
		}
	}

	g := rng.NewXoroshiro128(2016)
	clock := vtime.NewClock(0)
	buf := make([]byte, 3*block)
	// span draws [off, off+n) starting inside store i with n in [1, maxLen].
	span := func(i int, maxLen int64) (off, n int64) {
		off = int64(g.Uint64n(uint64(len(model[i]))))
		return off, 1 + int64(g.Uint64n(uint64(maxLen)))
	}
	var failed, viaCache, viaMedia int
	for op := 0; op < ops; op++ {
		i := int(g.Uint64n(3))
		size := int64(len(model[i]))
		var what string
		switch kind := g.Uint64n(100); {
		case kind < 45:
			what = "read"
			off, n := span(i, 3*block)
			n = min(n, size-off)
			err := stores[i].ReadAt(clock, buf[:n], off)
			if err != nil {
				if i != 0 || !errors.Is(err, nvm.ErrTransient) {
					t.Fatalf("op %d: read store %d [%d,%d): %v", op, i, off, off+n, err)
				}
				failed++
				break
			}
			for k, b := range buf[:n] {
				if want := model[i][off+int64(k)]; b != want {
					t.Fatalf("op %d: read store %d [%d,%d): byte %d is %#x, want %#x", op, i, off, off+n, k, b, want)
				}
			}
		case kind < 60:
			what = "Prefetch"
			off, n := span(i, 6*block)
			stores[i].Prefetch(clock, off, n)
		case kind < 75:
			what = "FillRunAt"
			off, n := span(i, 6*block)
			stores[i].FillRunAt(clock.Now(), off, n)
		case kind < 90:
			what = "write"
			off, n := span(i, 2*block)
			n = min(n, size-off)
			copy(model[i][off:], version(i, off+n, uint64(op+1))[off:])
			if err := stores[i].WriteAt(clock, model[i][off:off+n], off); err != nil {
				t.Fatalf("op %d: write store %d [%d,%d): %v", op, i, off, off+n, err)
			}
		case kind < 99:
			i, size = 2, int64(len(model[2]))
			if size >= maxBlocks*block {
				continue
			}
			what = "append"
			n := block * (1 + int64(g.Uint64n(3)))
			model[2] = append(model[2], version(2, size+n, uint64(op+1))[size:]...)
			var err error
			if g.Uint64n(2) == 0 {
				err = stores[2].WriteAt(clock, model[2][size:], size)
				viaCache++
			} else {
				err = mems[2].WriteAt(clock, model[2][size:], size)
				viaMedia++
			}
			if err != nil {
				t.Fatalf("op %d: append to store 2 at %d: %v", op, size, err)
			}
		default:
			what = "Reset"
			cache.Reset()
		}
		if err := cache.CheckPageTables(); err != nil {
			t.Fatalf("op %d (%s on store %d): %v", op, what, i, err)
		}
	}
	st := cache.Stats()
	if failed == 0 || viaCache == 0 || viaMedia == 0 || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("the schedule missed a path: %d failed reads, %d appends through the cache, %d to the media, %v",
			failed, viaCache, viaMedia, st)
	}
}

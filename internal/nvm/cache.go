package nvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// PageCache is a fixed-budget, block-granular DRAM cache shared by a set
// of NVM stores — the compact shared page cache FlashGraph puts in front
// of its SSD file system (SAFS), applied to the paper's forward graph.
//
// Design:
//
//   - Pages are whole device blocks (the store's request-size cap, 4 KiB
//     by default), so a cached read never issues a smaller device request
//     than an uncached one would, and checksum-verified stores are read at
//     exactly their verification granularity.
//   - Eviction is GCLOCK (CLOCK with a saturating reference counter):
//     each shard sweeps a clock hand over its page ring, decrementing
//     counters until a zero-count settled page turns up. New fills enter
//     cold (count 0) and each demand hit increments the counter, so a
//     BFS level streaming adjacency blocks it will never revisit churns
//     through the cold pages while the repeatedly-hit index blocks
//     accumulate counts and stay resident — scan resistance one bit of
//     CLOCK state cannot express. This approximates LRU-k without
//     per-hit list surgery, which matters because hits take the shard
//     lock only briefly.
//   - The page table is sharded by key hash, so concurrent simulated
//     workers touching different blocks never contend on one lock.
//   - Fills are single-flighted: when two workers miss the same block at
//     once, one issues the device request and the other waits for the
//     filled page, modeling the request merging a shared OS page cache
//     performs.
//   - The cache is a buffer pool: it owns at most one page struct per page
//     of budget, each with one block-sized frame allocated on first use and
//     recycled from then on. The CLOCK victim's struct is reassigned in
//     place, dropped pages wait on a per-shard free list, and the read path
//     allocates nothing. Because frames are reused, page bytes are only
//     touched under the shard lock (or by the one filler of an in-flight
//     page): readBlock copies into the caller's slice before unlocking.
//
// Virtual-time accounting: a hit charges the worker's clock the DRAM
// streaming cost of the copied bytes (numa.CostModel.Stream); a miss
// charges the device request through the inner store and then the copy.
// A page filled by prefetch or by another worker's in-flight request
// carries its fill's completion time, and a reader arriving earlier
// advances to it — an async prefetch is free only once it has completed.
type PageCache struct {
	block  int64
	cost   numa.CostModel
	shards []cacheShard
	// capacity is the page budget summed over shards.
	capacity int64
	// nextID hands out CachedStore identities.
	nextID atomic.Uint32
	// scratch pools fillRunAt's reservation list and multi-block buffer.
	scratch sync.Pool
}

// maxCacheShards bounds the lock-shard count. 16 shards keep 48
// simulated workers from serializing; small caches use fewer shards so
// each ring keeps enough pages for CLOCK to have history to work with
// (a 1-page shard degenerates to direct-mapped and thrashes on any two
// hot blocks that collide).
const maxCacheShards = 16

// minPagesPerShard is the smallest ring CLOCK sweeps usefully.
const minPagesPerShard = 8

// maxPageRefs caps the GCLOCK reference counter: a page the sweep must
// pass this many times before it becomes a victim. Small enough that a
// formerly-hot page ages out within a few sweeps.
const maxPageRefs = 3

// pageKey is store<<40 ^ block — one word, so the page table hashes on the
// runtime's 64-bit fast path, and the very word shardOf multiplies. Keys are
// distinct for blocks below 2^40 and store identities below 2^24 (Wrap
// enforces the latter).
type pageKey uint64

func keyOf(store uint32, block int64) pageKey {
	return pageKey(uint64(store)<<40 ^ uint64(block))
}

type page struct {
	key pageKey
	// frame is the page's block-sized buffer, allocated when the struct is
	// first used and kept for its life; n bytes of it are valid (a store's
	// last block may be short). Touched only under the shard lock, or by
	// the filler while filling is set.
	frame []byte
	n     int
	// readyAt is the virtual completion time of the fill that produced
	// the page; readers arriving earlier advance to it. fill is the scratch
	// clock the filler computes that fill's device time on.
	readyAt vtime.Duration
	fill    vtime.Clock
	// refs is the GCLOCK reference counter: incremented (saturating at
	// maxPageRefs) on each demand hit, decremented by the eviction sweep.
	// New fills enter at zero, so unreferenced pages evict first.
	refs uint8
	// filling marks an in-flight fill. gen counts the struct's
	// transitions (assigned to a key, fill settled, released): a waiter
	// that recorded gen while filling sleeps on the shard's cond until it
	// moves, and trusts the page only at exactly gen+1 — settled, and not
	// evicted or invalidated since.
	filling bool
	gen     uint32
	err     error
	// stale marks a page invalidated by a write while its fill was in
	// flight; the filler discards it instead of installing it.
	stale bool
	// prefetched marks a page filled by readahead; the first hit on it
	// counts as a prefetch hit and clears the mark.
	prefetched bool
}

type cacheShard struct {
	mu sync.Mutex
	// settled wakes the waiters merged onto this shard's in-flight fills.
	settled sync.Cond
	// pages indexes the ring by key; ring is the CLOCK ring, growing up
	// to capacity before eviction starts.
	pages    map[pageKey]*page
	ring     []*page
	hand     int
	capacity int
	// free holds the structs (with their frames) of dropped pages; frames
	// counts the frames this shard has ever allocated.
	free   []*page
	frames int
	// stats holds the shard's share of the counters, updated under mu.
	stats CacheStats
}

// NewPageCache returns a cache with the given byte budget and block size.
// block <= 0 selects DefaultChunkSize; a positive budget smaller than one
// block is rounded up to a single page. cost supplies the DRAM streaming
// cost hits charge; the zero value selects numa.DefaultCostModel.
func NewPageCache(budget int64, block int, cost numa.CostModel) *PageCache {
	if block <= 0 {
		block = DefaultChunkSize
	}
	if cost == (numa.CostModel{}) {
		cost = numa.DefaultCostModel
	}
	pages := budget / int64(block)
	if pages < 1 {
		pages = 1
	}
	nShards := int(pages / minPagesPerShard)
	if nShards < 1 {
		nShards = 1
	}
	if nShards > maxCacheShards {
		nShards = maxCacheShards
	}
	c := &PageCache{
		block:    int64(block),
		cost:     cost,
		shards:   make([]cacheShard, nShards),
		capacity: pages,
	}
	// Spread the page budget over the shards, remainder to the leading
	// ones.
	base, rem := pages/int64(nShards), pages%int64(nShards)
	for i := range c.shards {
		cap := base
		if int64(i) < rem {
			cap++
		}
		c.shards[i].capacity = int(cap)
		c.shards[i].pages = make(map[pageKey]*page)
		c.shards[i].settled.L = &c.shards[i].mu
	}
	return c
}

// BlockBytes returns the cache's page size in bytes.
func (c *PageCache) BlockBytes() int64 { return c.block }

// CapacityBytes returns the DRAM budget the cache may occupy. Shard
// rounding can hold a few pages more than the requested budget; this
// reports the actual bound.
func (c *PageCache) CapacityBytes() int64 {
	var pages int64
	for i := range c.shards {
		pages += int64(c.shards[i].capacity)
	}
	return pages * c.block
}

// Wrap returns a CachedStore routing inner's reads through the cache.
// Every wrapped store gets a distinct identity, so stores sharing the
// cache never alias each other's blocks.
func (c *PageCache) Wrap(inner Storage) *CachedStore {
	id := c.nextID.Add(1)
	if id >= 1<<24 {
		panic("nvm: PageCache.Wrap: more than 2^24 stores on one cache")
	}
	return &CachedStore{inner: inner, cache: c, id: id}
}

// Reset drops every cached page and zeroes the statistics (the benchmark
// driver calls it so each run starts cold, like the device counters). The
// dropped pages' frames stay with the cache; a fill still in flight is
// marked stale, so its filler discards it.
func (c *PageCache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, pg := range s.ring {
			if pg.filling {
				pg.stale = true
			} else {
				s.releaseLocked(pg)
			}
		}
		clear(s.pages)
		s.ring = s.ring[:0]
		s.hand = 0
		s.stats = CacheStats{}
		s.mu.Unlock()
	}
}

// CacheStats is a snapshot of a cache's accumulated counters.
type CacheStats struct {
	// Hits / Misses count block lookups; a read spanning b blocks
	// performs b lookups. HitBytes / FillBytes are the bytes served from
	// DRAM and filled from the device.
	Hits, Misses        int64
	HitBytes, FillBytes int64
	// Evictions counts pages dropped by the CLOCK sweep.
	Evictions int64
	// Prefetches counts blocks filled by readahead; PrefetchHits counts
	// prefetched pages that later served a demand read.
	Prefetches   int64
	PrefetchHits int64
	// MergedFills counts misses that coalesced onto another worker's
	// in-flight fill instead of issuing their own device request.
	MergedFills int64
	// CapacityBytes / BlockBytes describe the cache's configuration
	// (zero when no cache is attached).
	CapacityBytes int64
	BlockBytes    int64
}

// HitRate returns hits over lookups, or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// Sub returns s minus o counter-wise, keeping s's configuration fields
// (for per-run deltas over cumulative counters).
func (s CacheStats) Sub(o CacheStats) CacheStats {
	s.Hits -= o.Hits
	s.Misses -= o.Misses
	s.HitBytes -= o.HitBytes
	s.FillBytes -= o.FillBytes
	s.Evictions -= o.Evictions
	s.Prefetches -= o.Prefetches
	s.PrefetchHits -= o.PrefetchHits
	s.MergedFills -= o.MergedFills
	return s
}

// Add returns s plus o counter-wise; configuration fields take o's when
// s has none (for aggregating per-run deltas).
func (s CacheStats) Add(o CacheStats) CacheStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.HitBytes += o.HitBytes
	s.FillBytes += o.FillBytes
	s.Evictions += o.Evictions
	s.Prefetches += o.Prefetches
	s.PrefetchHits += o.PrefetchHits
	s.MergedFills += o.MergedFills
	if s.CapacityBytes == 0 {
		s.CapacityBytes = o.CapacityBytes
		s.BlockBytes = o.BlockBytes
	}
	return s
}

// String renders the stats for reports.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.1f%%) evictions=%d prefetched=%d merged=%d",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Prefetches, s.MergedFills)
}

// Stats returns the cache's counters so far.
func (c *PageCache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st = st.Add(s.stats)
		s.mu.Unlock()
	}
	st.CapacityBytes, st.BlockBytes = c.CapacityBytes(), c.block
	return st
}

// Pages returns the number of resident (including in-flight) pages, for
// tests asserting the budget is respected.
func (c *PageCache) Pages() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// shardOf picks the lock shard for a key (fibonacci hash).
func (c *PageCache) shardOf(k pageKey) *cacheShard {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return &c.shards[h>>48%uint64(len(c.shards))]
}

// releaseLocked puts a dropped page's struct, with its frame, on the free
// list. The shard lock must be held.
func (s *cacheShard) releaseLocked(pg *page) {
	pg.gen++
	s.free = append(s.free, pg)
}

// reserveLocked installs an in-flight page for key and returns it: the
// CLOCK victim's struct reassigned in place when the ring is full, else a
// struct off the free list (or a new one) appended to the ring. The shard
// lock must be held.
func (c *PageCache) reserveLocked(s *cacheShard, key pageKey) *page {
	var pg *page
	if len(s.ring) >= s.capacity {
		// GCLOCK sweep: decrement reference counters until a zero-count,
		// settled page turns up. maxPageRefs+1 full turns visit every page
		// with its counter drained, so the only way out without a victim is a
		// ring full of in-flight fills; grow past budget transiently rather
		// than deadlock.
		for turns := 0; pg == nil && turns < (maxPageRefs+1)*len(s.ring); turns++ {
			cand := s.ring[s.hand]
			s.hand = (s.hand + 1) % len(s.ring)
			switch {
			case cand.filling:
				// In-flight pages cannot be dropped.
			case cand.refs > 0:
				cand.refs--
			default:
				delete(s.pages, cand.key)
				s.stats.Evictions++
				pg = cand
			}
		}
	}
	if pg == nil {
		if last := len(s.free) - 1; last >= 0 {
			pg, s.free = s.free[last], s.free[:last]
		} else {
			pg = new(page)
		}
		s.ring = append(s.ring, pg)
	}
	if pg.frame == nil {
		pg.frame = make([]byte, c.block)
		s.frames++
	}
	pg.key, pg.gen = key, pg.gen+1
	pg.filling, pg.stale, pg.prefetched = true, false, false
	pg.refs, pg.readyAt, pg.err = 0, 0, nil
	s.pages[key] = pg
	return pg
}

// removeLocked drops pg from the shard's table and ring (used by failed
// fills and write invalidation; a no-op for a page Reset already dropped).
// The shard lock must be held.
func (s *cacheShard) removeLocked(pg *page) {
	if s.pages[pg.key] == pg {
		delete(s.pages, pg.key)
	}
	for i, q := range s.ring {
		if q == pg {
			last := len(s.ring) - 1
			s.ring[i] = s.ring[last]
			s.ring = s.ring[:last]
			if s.hand > last || (s.hand == last && last > 0) {
				s.hand = 0
			}
			return
		}
	}
}

// settleLocked completes pg's fill and wakes its waiters. A failed or
// invalidated fill leaves the table; its struct stays behind for the
// waiters that hold it (they read err and stale from it), and only its
// frame goes back to the free list. The shard lock must be held.
func (s *cacheShard) settleLocked(pg *page, err error, readyAt vtime.Duration, prefetched bool) {
	pg.err, pg.filling = err, false
	pg.gen++
	if err != nil || pg.stale {
		s.removeLocked(pg)
		s.releaseLocked(&page{frame: pg.frame})
		pg.frame = nil
	} else {
		pg.readyAt, pg.prefetched = readyAt, prefetched
	}
	if err == nil {
		s.stats.FillBytes += int64(pg.n)
		if prefetched {
			s.stats.Prefetches++
		} else {
			s.stats.Misses++
		}
	}
	s.settled.Broadcast()
}

// readBlock serves block `block` of store id, filling it from inner on a
// miss, and copies the page's bytes from lo on into dst — under the shard
// lock, the only place page bytes are read. It returns the bytes copied;
// zero with a nil error means lo lies beyond the block's valid bytes.
// prefetch fills install the page without advancing clock or copying;
// demand reads advance clock to the page's fill completion. A prefetch
// past the store's end is a no-op.
//
// Write-through races: a write landing while a fill is in flight marks
// the page stale, and the fill's frame may hold pre-write bytes. A
// demand read must never return stale bytes — both the filler and any
// waiter that merged onto the fill check staleness once the fill settles
// and retry the lookup (settling removed the stale page from the table, so
// the retry refills from the post-write media). This covers single-block
// fills and coalesced FillRunAt runs alike.
func (c *PageCache) readBlock(clock *vtime.Clock, inner Storage, id uint32, block int64, prefetch bool, dst []byte, lo int64) (int, error) {
	key := keyOf(id, block)
	s := c.shardOf(key)

	for {
		s.mu.Lock()
		pg, ok := s.pages[key]
		if ok && prefetch {
			// Resident or in flight already. A readahead touching a cached
			// block is not evidence of reuse: only demand hits promote it.
			s.mu.Unlock()
			return 0, nil
		}
		if ok {
			// advance: the reader waits out the fill's completion. That is
			// so for a fill it merged onto and for the first demand read of
			// a prefetched page — an async readahead is free only once it has
			// actually finished. Settled demand-filled pages cost nothing
			// here: the page is plain DRAM, and dragging this worker's clock
			// to the *filler's* timeline would couple independent workers'
			// queueing delays.
			advance := pg.filling
			if pg.filling {
				// Another worker's fill is in flight: wait for it instead of
				// issuing a second device request for the same block.
				s.stats.MergedFills++
				gen := pg.gen
				for pg.gen == gen {
					s.settled.Wait()
				}
				if moved, err := pg.gen != gen+1, pg.err; moved || pg.stale || err != nil {
					// Evicted or invalidated again since it settled (the
					// struct may already describe another block), or raced a
					// write-through (its bytes predate a write this reader may
					// already have observed): retry. Failed: report the error.
					s.mu.Unlock()
					if !moved && err != nil {
						return 0, err
					}
					continue
				}
			} else {
				if pg.refs < maxPageRefs {
					pg.refs++
				}
				if advance = pg.prefetched; advance {
					s.stats.PrefetchHits++
					pg.prefetched = false
				}
			}
			s.stats.Hits++
			s.stats.HitBytes += int64(pg.n)
			n, readyAt := pg.copyTo(dst, lo), pg.readyAt
			s.mu.Unlock()
			if advance && clock != nil {
				clock.AdvanceTo(readyAt)
			}
			return n, nil
		}

		// Miss: reserve the page, then fill its frame outside the shard
		// lock (nothing else touches the frame of an in-flight page).
		off := block * c.block
		size := inner.Size()
		if off >= size {
			s.mu.Unlock()
			if prefetch {
				return 0, nil
			}
			return 0, fmt.Errorf("nvm: cache read block %d beyond store size %d", block, size)
		}
		pg = c.reserveLocked(s, key)
		pg.n = int(min(c.block, size-off))
		// The fill's device time is computed on the page's scratch clock so
		// prefetch issues the request at the worker's current time without
		// stalling the worker on its completion; demand reads advance to it
		// below.
		pg.fill = vtime.Clock{}
		if clock != nil {
			pg.fill.AdvanceTo(clock.Now())
		}
		s.mu.Unlock()

		err := inner.ReadAt(&pg.fill, pg.frame[:pg.n], off)

		s.mu.Lock()
		stale := pg.stale
		s.settleLocked(pg, err, pg.fill.Now(), prefetch)
		var n int
		var readyAt vtime.Duration
		if err == nil && !stale && !prefetch {
			n, readyAt = pg.copyTo(dst, lo), pg.readyAt
		}
		s.mu.Unlock()
		if err != nil || prefetch {
			return 0, err
		}
		if stale {
			// This fill raced a write-through and may predate it; re-read
			// so a read issued after the write never returns stale bytes.
			continue
		}
		if clock != nil {
			clock.AdvanceTo(readyAt)
		}
		return n, nil
	}
}

// copyTo copies the page's valid bytes from lo on into dst. The shard lock
// must be held.
func (pg *page) copyTo(dst []byte, lo int64) int {
	if lo >= int64(pg.n) {
		return 0
	}
	return copy(dst, pg.frame[lo:pg.n])
}

// fillScratch is fillRunAt's per-call working memory, pooled per cache.
type fillScratch struct {
	reserved []reservation
	buf      []byte
}

type reservation struct {
	pg  *page
	blk int64
}

// fillRunAt fills the nblocks blocks starting at block for store id,
// coalescing adjacent absent blocks into single large inner reads — the
// request-merging half of the async I/O pipeline. Blocks already cached or
// in flight are skipped (dedup against single-flight demand fills), the
// surviving blocks are grouped into maximal contiguous runs, and each run
// issues ONE inner.ReadAt on a scratch clock starting at virtual time at:
// a one-block run straight into its frame, a longer one into the pooled
// scratch buffer, from which each page's frame is then filled. Pages carry
// the run's completion as their readyAt and are marked prefetched, so the
// first demand hit waits out the asynchronous fill exactly as with
// per-block readahead. Failed runs publish the error to any waiters and
// cache nothing.
//
// Returns the blocks filled, the runs issued, and the latest run
// completion time (at when nothing was issued).
func (c *PageCache) fillRunAt(at vtime.Duration, inner Storage, id uint32, block, nblocks int64) (filled, runs int, readyAt vtime.Duration) {
	readyAt = at
	if nblocks <= 0 || block < 0 {
		return
	}
	size := inner.Size()
	sc, _ := c.scratch.Get().(*fillScratch)
	if sc == nil {
		sc = new(fillScratch)
	}
	reserved := sc.reserved[:0]
	for b := block; b < block+nblocks; b++ {
		if b*c.block >= size {
			break
		}
		key := keyOf(id, b)
		s := c.shardOf(key)
		s.mu.Lock()
		if _, ok := s.pages[key]; !ok {
			pg := c.reserveLocked(s, key)
			pg.n = int(min(c.block, size-b*c.block))
			reserved = append(reserved, reservation{pg, b})
		}
		s.mu.Unlock()
	}
	for i := 0; i < len(reserved); {
		j := i + 1
		for j < len(reserved) && reserved[j].blk == reserved[j-1].blk+1 {
			j++
		}
		lo := reserved[i].blk * c.block
		hi := min((reserved[j-1].blk+1)*c.block, size)
		// The run's scratch clock is its first page's.
		fill := &reserved[i].pg.fill
		*fill = vtime.Clock{}
		fill.AdvanceTo(at)
		var buf []byte
		if j == i+1 {
			buf = reserved[i].pg.frame[:hi-lo]
		} else {
			if int64(cap(sc.buf)) < hi-lo {
				sc.buf = make([]byte, hi-lo)
			}
			buf = sc.buf[:hi-lo]
		}
		err := inner.ReadAt(fill, buf, lo)
		ready := fill.Now()
		if err == nil && ready > readyAt {
			readyAt = ready
		}
		for k := i; k < j; k++ {
			pg := reserved[k].pg
			s := c.shardOf(pg.key)
			s.mu.Lock()
			if err == nil && j > i+1 {
				copy(pg.frame[:pg.n], buf[reserved[k].blk*c.block-lo:])
			}
			// A page invalidated mid-fill leaves the table here, and demand
			// waiters that merged onto this run see the stale mark and retry
			// against the rewritten media.
			s.settleLocked(pg, err, ready, true)
			s.mu.Unlock()
		}
		if err == nil {
			filled += j - i
			runs++
		}
		i = j
	}
	sc.reserved = reserved
	c.scratch.Put(sc)
	return
}

// invalidate drops every settled page covering [off, off+n) of store id
// and marks in-flight ones stale so their fills are discarded.
func (c *PageCache) invalidate(id uint32, off, n int64) {
	if n <= 0 {
		return
	}
	for block := off / c.block; block*c.block < off+n; block++ {
		key := keyOf(id, block)
		s := c.shardOf(key)
		s.mu.Lock()
		if pg, ok := s.pages[key]; ok {
			if pg.filling {
				pg.stale = true
			} else {
				s.removeLocked(pg)
				s.releaseLocked(pg)
			}
		}
		s.mu.Unlock()
	}
}

// CachedStore is an nvm.Storage whose reads are served through a shared
// PageCache. It is the layer the semi-external readers place between
// their retry policy and the (possibly checksum-verified, possibly
// fault-injected) index and value stores: a block that fails to read —
// including one whose checksum does not verify — is never cached, so a
// retry always re-reads the media.
type CachedStore struct {
	inner Storage
	cache *PageCache
	id    uint32
}

// Cache returns the shared cache this store reads through.
func (s *CachedStore) Cache() *PageCache { return s.cache }

// Device returns the inner store's device model.
func (s *CachedStore) Device() *Device { return s.inner.Device() }

// Size returns the inner store's size.
func (s *CachedStore) Size() int64 { return s.inner.Size() }

// Close closes the inner store. Cached pages are not dropped; the cache
// owner resets it.
func (s *CachedStore) Close() error { return s.inner.Close() }

// Kind implements Layer.
func (s *CachedStore) Kind() string { return "cache" }

// Unwrap implements Layer.
func (s *CachedStore) Unwrap() Storage { return s.inner }

// StatsKey implements StatsKeyed: every CachedStore of one PageCache
// reports the cache's shared counters, so collection must charge them
// once per cache, not once per store.
func (s *CachedStore) StatsKey() any { return s.cache }

// Stats implements Layer.
func (s *CachedStore) Stats() LayerStats {
	st := s.cache.Stats()
	return LayerStats{Kind: "cache", Counters: []Counter{
		{Name: "hits", Value: st.Hits},
		{Name: "misses", Value: st.Misses},
		{Name: "hit_bytes", Value: st.HitBytes},
		{Name: "fill_bytes", Value: st.FillBytes},
		{Name: "evictions", Value: st.Evictions},
		{Name: "prefetches", Value: st.Prefetches},
		{Name: "prefetch_hits", Value: st.PrefetchHits},
		{Name: "merged_fills", Value: st.MergedFills},
		{Name: "capacity_bytes", Value: st.CapacityBytes, Gauge: true},
		{Name: "block_bytes", Value: st.BlockBytes, Gauge: true},
	}}
}

// ReadAt implements Storage: each covered block is served from the cache
// (filled from the inner store on a miss) and copied out under its lock. The copy
// charges the DRAM streaming cost; fills charge the device through the
// worker's clock as usual.
func (s *CachedStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("nvm: cache read at negative offset %d", off)
	}
	c := s.cache
	bs := c.block
	for pos := int64(0); pos < int64(len(p)); {
		cur := off + pos
		block := cur / bs
		n, err := c.readBlock(clock, s.inner, s.id, block, false, p[pos:], cur-block*bs)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("nvm: cache read [%d,%d) beyond store size %d",
				off, off+int64(len(p)), s.inner.Size())
		}
		if clock != nil {
			clock.Advance(c.cost.Stream(n))
		}
		pos += int64(n)
	}
	return nil
}

// Prefetch asynchronously fills the blocks covering [off, off+n): each
// absent block's device request is issued at the worker's current virtual
// time, but the worker does not wait for completion — a later demand read
// of a prefetched page advances to the fill's completion time, so only
// prefetches that have finished by then are free. Blocks already cached,
// in flight, or beyond the store's end are skipped, as are failed fills
// (a demand read will retry them and surface the error).
func (s *CachedStore) Prefetch(clock *vtime.Clock, off, n int64) {
	if n <= 0 || off < 0 {
		return
	}
	c := s.cache
	for block := off / c.block; block*c.block < off+n; block++ {
		// Errors are deliberately dropped: readahead is a hint.
		c.readBlock(clock, s.inner, s.id, block, true, nil, 0) //nolint:errcheck
	}
}

// FillRunAt fills the blocks covering [off, off+n) with coalesced device
// requests issued at virtual time at, without advancing any worker clock
// (see PageCache.fillRunAt). The AsyncStore layer drives it for both
// multi-block demand reads and frontier prefetch.
func (s *CachedStore) FillRunAt(at vtime.Duration, off, n int64) (blocks, runs int, readyAt vtime.Duration) {
	if n <= 0 || off < 0 {
		return 0, 0, at
	}
	c := s.cache
	first := off / c.block
	last := (off + n - 1) / c.block
	return c.fillRunAt(at, s.inner, s.id, first, last-first+1)
}

// WriteAt implements Storage: write-through, invalidating every covered
// page (offload writes happen before traversal; the cache stays cold
// until reads begin).
func (s *CachedStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if err := s.inner.WriteAt(clock, p, off); err != nil {
		return err
	}
	s.cache.invalidate(s.id, off, int64(len(p)))
	return nil
}

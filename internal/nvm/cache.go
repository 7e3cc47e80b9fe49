package nvm

import (
	"fmt"

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
//     counters until a zero-count page turns up. New fills enter
//     cold (count 0) and each demand hit increments the counter, so a
//     BFS level streaming adjacency blocks it will never revisit churns
//     through the cold pages while the repeatedly-hit index blocks
//     accumulate counts and stay resident — scan resistance one bit of
//     CLOCK state cannot express. This approximates LRU-k without
//     per-hit list surgery.
//   - The page table is one dense slice per wrapped store, indexed by
//     block: tables[id][block] holds the resident page or nil, so a hit is
//     two slice indexes, with no hashing. A table costs 8 B of host memory
//     per block of its store (0.2 % of the store's bytes at 4 KiB blocks),
//     outside the modelled budget. It is sized when the store is wrapped
//     and grown by writes through the cache, so reads do not grow it; only
//     a store that grows below the cache has its table grown by a fill.
//   - The rings are split by key hash into shards, each with its own clock
//     hand. The split is part of the eviction policy: it decides which
//     ring, and so which victim, a fill sweeps. Only a miss, a drop or an
//     invalidation hashes; a hit never touches a shard.
//   - The cache is a buffer pool: it owns at most one page struct per page
//     of budget, each with one block-sized frame allocated on first use and
//     recycled from then on. The CLOCK victim's struct is reassigned in
//     place, dropped pages wait on a per-shard free list, and the read path
//     allocates nothing. Because frames are reused, readBlock copies a
//     page's bytes into the caller's slice before it returns.
//
// Like every layer of a storage stack, a cache is used by one goroutine at
// a time; it takes no locks.
//
// Virtual-time accounting: a hit charges the worker's clock the DRAM
// streaming cost of the copied bytes (numa.CostModel.Stream); a miss
// charges the device request through the inner store and then the copy.
// A page filled by prefetch carries its fill's completion time, and the
// first demand reader arriving earlier advances to it — an async prefetch
// is free only once it has completed.
type PageCache struct {
	block  int64
	cost   numa.CostModel
	shards []cacheShard
	// capacity is the page budget summed over shards.
	capacity int64
	// tables[id][block] is the resident page of block `block` of the store
	// with identity id, or nil. tables[0] is unused: identities start at 1,
	// and keyOf hashes them into the choice of ring.
	tables [][]*page
	stats  CacheStats
	// fill is the scratch clock a fill computes its device time on;
	// reserved and runBuf are fillRunAt's reservation list and multi-block
	// buffer, kept for the next call.
	fill     vtime.Clock
	reserved []*page
	runBuf   []byte
}

// maxCacheShards bounds the shard count; small caches use fewer shards so
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

// keyOf is the word shardOf hashes to pick a page's ring: store<<40 ^
// block. Lookups go through the page tables and never hash; this word only
// decides which ring a fill sweeps, so it must not change without moving
// every victim.
func keyOf(store uint32, block int64) uint64 {
	return uint64(store)<<40 ^ uint64(block)
}

type page struct {
	// id and block locate the page's entry in the page tables.
	id    uint32
	block int64
	// frame is the page's block-sized buffer, allocated when the struct is
	// first used and kept for its life; n bytes of it are valid (a store's
	// last block may be short).
	frame []byte
	n     int
	// readyAt is the virtual completion time of the fill that produced
	// the page; the first demand reader of a prefetched page advances to it.
	readyAt vtime.Duration
	// refs is the GCLOCK reference counter: incremented (saturating at
	// maxPageRefs) on each demand hit, decremented by the eviction sweep.
	// New fills enter at zero, so unreferenced pages evict first.
	refs uint8
	// filling marks a page fillRunAt has reserved but not yet filled; the
	// sweep passes over it, so a run never evicts its own pages.
	filling bool
	// prefetched marks a page filled by readahead; the first hit on it
	// counts as a prefetch hit and clears the mark.
	prefetched bool
}

type cacheShard struct {
	// ring is the CLOCK ring, growing up to capacity before eviction
	// starts.
	ring     []*page
	hand     int
	capacity int
	// free holds the structs (with their frames) of dropped pages; frames
	// counts the frames this shard has ever allocated.
	free   []*page
	frames int
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
		tables:   make([][]*page, 1),
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
	}
	return c
}

// BlockBytes returns the cache's page size in bytes.
func (c *PageCache) BlockBytes() int64 { return c.block }

// CapacityBytes returns the DRAM budget the cache may occupy: the budget
// in whole pages, at least one.
func (c *PageCache) CapacityBytes() int64 { return c.capacity * c.block }

// Wrap returns a CachedStore routing inner's reads through the cache, with
// a page table covering inner's current size. Every wrapped store gets a
// distinct identity, so stores sharing the cache never alias each other's
// blocks.
func (c *PageCache) Wrap(inner Storage) *CachedStore {
	id := uint32(len(c.tables))
	c.tables = append(c.tables, nil)
	c.grow(id, c.blocksBelow(inner.Size()))
	return &CachedStore{inner: inner, cache: c, id: id}
}

// blocksBelow returns the number of blocks covering [0, end).
func (c *PageCache) blocksBelow(end int64) int64 { return (end + c.block - 1) / c.block }

// grow extends store id's page table to cover at least n blocks, with
// append's amortised growth.
func (c *PageCache) grow(id uint32, n int64) {
	if t := c.tables[id]; n > int64(len(t)) {
		c.tables[id] = append(t, make([]*page, n-int64(len(t)))...)
	}
}

// Reset drops every cached page and zeroes the statistics (the benchmark
// driver calls it so each run starts cold, like the device counters). The
// dropped pages' frames stay with the cache.
func (c *PageCache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		for _, pg := range s.ring {
			c.tables[pg.id][pg.block] = nil
		}
		s.free = append(s.free, s.ring...)
		s.ring = s.ring[:0]
		s.hand = 0
	}
	c.stats = CacheStats{}
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
	return s
}

// String renders the stats for reports.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.1f%%) evictions=%d prefetched=%d",
		s.Hits, s.Misses, 100*s.HitRate(), s.Evictions, s.Prefetches)
}

// Stats returns the cache's counters so far.
func (c *PageCache) Stats() CacheStats {
	st := c.stats
	st.CapacityBytes, st.BlockBytes = c.CapacityBytes(), c.block
	return st
}

// Pages returns the number of resident pages, for tests asserting the
// budget is respected.
func (c *PageCache) Pages() int {
	var n int
	for i := range c.shards {
		n += len(c.shards[i].ring)
	}
	return n
}

// shardOf picks the shard whose ring holds block `block` of store id
// (fibonacci hash of keyOf).
func (c *PageCache) shardOf(id uint32, block int64) *cacheShard {
	h := keyOf(id, block) * 0x9e3779b97f4a7c15
	return &c.shards[h>>48%uint64(len(c.shards))]
}

// reserve installs an empty page for block `block` of store id and returns
// it: the CLOCK victim's struct, in the ring shardOf picks, reassigned in
// place when that ring is full, else a struct off the free list (or a new
// one) appended to the ring. A block past the end of the store's table
// grows it: a store the cache did not see grow.
func (c *PageCache) reserve(id uint32, block int64) *page {
	s := c.shardOf(id, block)
	var pg *page
	if len(s.ring) >= s.capacity {
		// GCLOCK sweep: decrement reference counters until a zero-count
		// page turns up. maxPageRefs+1 full turns visit every page with its
		// counter drained, so the only way out without a victim is a ring
		// full of one run's reservations; grow past budget transiently
		// rather than evict them.
		for turns := 0; pg == nil && turns < (maxPageRefs+1)*len(s.ring); turns++ {
			cand := s.ring[s.hand]
			s.hand = (s.hand + 1) % len(s.ring)
			switch {
			case cand.filling:
				// Reserved by the run being filled.
			case cand.refs > 0:
				cand.refs--
			default:
				c.tables[cand.id][cand.block] = nil
				c.stats.Evictions++
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
	pg.id, pg.block, pg.prefetched = id, block, false
	pg.refs, pg.readyAt = 0, 0
	c.grow(id, block+1)
	c.tables[id][block] = pg
	return pg
}

// drop removes pg from its page table and ring and puts its struct, with
// its frame, on the free list (used by failed fills and write
// invalidation).
func (c *PageCache) drop(pg *page) {
	c.tables[pg.id][pg.block] = nil
	s := c.shardOf(pg.id, pg.block)
	for i, q := range s.ring {
		if q == pg {
			last := len(s.ring) - 1
			s.ring[i] = s.ring[last]
			s.ring = s.ring[:last]
			if s.hand > last || (s.hand == last && last > 0) {
				s.hand = 0
			}
			break
		}
	}
	s.free = append(s.free, pg)
}

// settle completes pg's fill. A failed fill leaves the cache; a good one
// carries its completion time and counts as a prefetch or a miss.
func (c *PageCache) settle(pg *page, err error, readyAt vtime.Duration, prefetched bool) {
	pg.filling = false
	if err != nil {
		c.drop(pg)
		return
	}
	pg.readyAt, pg.prefetched = readyAt, prefetched
	c.stats.FillBytes += int64(pg.n)
	if prefetched {
		c.stats.Prefetches++
	} else {
		c.stats.Misses++
	}
}

// lookup returns the resident page of block `block` of store id, or nil.
func (c *PageCache) lookup(id uint32, block int64) *page {
	if t := c.tables[id]; uint64(block) < uint64(len(t)) {
		return t[block]
	}
	return nil
}

// readBlock serves block `block` of store id, filling it from inner on a
// miss, and copies the page's bytes from lo on into dst. It returns the
// bytes copied; zero with a nil error means lo lies beyond the block's
// valid bytes. prefetch fills install the page without advancing clock or
// copying; demand reads advance clock to the page's fill completion. A
// prefetch past the store's end is a no-op.
func (c *PageCache) readBlock(clock *vtime.Clock, inner Storage, id uint32, block int64, prefetch bool, dst []byte, lo int64) (int, error) {
	if pg := c.lookup(id, block); pg != nil {
		if prefetch {
			// A readahead touching a cached block is not evidence of
			// reuse: only demand hits promote it.
			return 0, nil
		}
		if pg.refs < maxPageRefs {
			pg.refs++
		}
		c.stats.Hits++
		c.stats.HitBytes += int64(pg.n)
		// The first demand read of a prefetched page waits out its fill:
		// an async readahead is free only once it has actually finished.
		// Demand-filled pages cost nothing here: the page is plain DRAM.
		if pg.prefetched {
			c.stats.PrefetchHits++
			pg.prefetched = false
			if clock != nil {
				clock.AdvanceTo(pg.readyAt)
			}
		}
		return pg.copyTo(dst, lo), nil
	}

	off := block * c.block
	size := inner.Size()
	if off >= size {
		if prefetch {
			return 0, nil
		}
		return 0, fmt.Errorf("nvm: cache read block %d beyond store size %d", block, size)
	}
	pg := c.reserve(id, block)
	pg.n = int(min(c.block, size-off))
	// The fill's device time is computed on the scratch clock so prefetch
	// issues the request at the worker's current time without stalling the
	// worker on its completion; demand reads advance to it below.
	c.fill = vtime.Clock{}
	if clock != nil {
		c.fill.AdvanceTo(clock.Now())
	}
	err := inner.ReadAt(&c.fill, pg.frame[:pg.n], off)
	c.settle(pg, err, c.fill.Now(), prefetch)
	if err != nil || prefetch {
		return 0, err
	}
	if clock != nil {
		clock.AdvanceTo(pg.readyAt)
	}
	return pg.copyTo(dst, lo), nil
}

// copyTo copies the page's valid bytes from lo on into dst.
func (pg *page) copyTo(dst []byte, lo int64) int {
	if lo >= int64(pg.n) {
		return 0
	}
	return copy(dst, pg.frame[lo:pg.n])
}

// fillRunAt fills the nblocks blocks starting at block for store id,
// coalescing adjacent absent blocks into single large inner reads — the
// request-merging half of the async I/O pipeline. Blocks already cached
// are skipped, the rest are reserved and grouped into maximal contiguous
// runs, and each run issues ONE inner.ReadAt on the scratch clock starting
// at virtual time at: a one-block run straight into its frame, a longer
// one into the kept run buffer, from which each page's frame is then
// filled. Pages carry the run's completion as their readyAt and are marked
// prefetched, so the first demand hit waits out the asynchronous fill
// exactly as with per-block readahead. Failed runs cache nothing.
//
// Returns the blocks filled, the runs issued, and the latest run
// completion time (at when nothing was issued).
func (c *PageCache) fillRunAt(at vtime.Duration, inner Storage, id uint32, block, nblocks int64) (filled, runs int, readyAt vtime.Duration) {
	readyAt = at
	if nblocks <= 0 || block < 0 {
		return
	}
	size := inner.Size()
	reserved := c.reserved[:0]
	for b := block; b < block+nblocks && b*c.block < size; b++ {
		if c.lookup(id, b) == nil {
			pg := c.reserve(id, b)
			pg.n = int(min(c.block, size-b*c.block))
			pg.filling = true
			reserved = append(reserved, pg)
		}
	}
	c.reserved = reserved
	for i := 0; i < len(reserved); {
		j := i + 1
		for j < len(reserved) && reserved[j].block == reserved[j-1].block+1 {
			j++
		}
		lo := reserved[i].block * c.block
		hi := min((reserved[j-1].block+1)*c.block, size)
		c.fill = vtime.Clock{}
		c.fill.AdvanceTo(at)
		var buf []byte
		if j == i+1 {
			buf = reserved[i].frame[:hi-lo]
		} else {
			if int64(cap(c.runBuf)) < hi-lo {
				c.runBuf = make([]byte, hi-lo)
			}
			buf = c.runBuf[:hi-lo]
		}
		err := inner.ReadAt(&c.fill, buf, lo)
		ready := c.fill.Now()
		if err == nil && ready > readyAt {
			readyAt = ready
		}
		for k := i; k < j; k++ {
			pg := reserved[k]
			if err == nil && j > i+1 {
				copy(pg.frame[:pg.n], buf[pg.block*c.block-lo:])
			}
			c.settle(pg, err, ready, true)
		}
		if err == nil {
			filled += j - i
			runs++
		}
		i = j
	}
	return
}

// invalidate drops every cached page covering [off, off+n) of store id
// and grows the store's page table to cover the write, so reads of what a
// write appended find a table of the right size.
func (c *PageCache) invalidate(id uint32, off, n int64) {
	if n <= 0 {
		return
	}
	c.grow(id, c.blocksBelow(off+n))
	for block := off / c.block; block*c.block < off+n; block++ {
		if pg := c.lookup(id, block); pg != nil {
			c.drop(pg)
		}
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

// AppendCounters implements Layer.
func (s *CachedStore) AppendCounters(dst []Counter) []Counter {
	st := s.cache.Stats()
	return append(dst,
		Counter{Name: "hits", Value: st.Hits},
		Counter{Name: "misses", Value: st.Misses},
		Counter{Name: "hit_bytes", Value: st.HitBytes},
		Counter{Name: "fill_bytes", Value: st.FillBytes},
		Counter{Name: "evictions", Value: st.Evictions},
		Counter{Name: "prefetches", Value: st.Prefetches},
		Counter{Name: "prefetch_hits", Value: st.PrefetchHits},
		Counter{Name: "capacity_bytes", Value: st.CapacityBytes, Gauge: true},
		Counter{Name: "block_bytes", Value: st.BlockBytes, Gauge: true},
	)
}

// ReadAt implements Storage: each covered block is served from the cache
// (filled from the inner store on a miss) and copied out. The copy charges the DRAM streaming cost; fills charge the device through the
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
// prefetches that have finished by then are free. Blocks already cached
// or beyond the store's end are skipped, as are failed fills
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

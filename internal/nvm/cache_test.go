package nvm

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
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

func TestCacheSingleFlight(t *testing.T) {
	dev := NewDevice(ProfileIoDrive2, 0)
	inner := NewMemStore(dev, 0)
	data := fillStore(t, inner, DefaultChunkSize)
	dev.Reset()

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clock := vtime.NewClock(0)
			buf := make([]byte, DefaultChunkSize)
			if err := cs.ReadAt(clock, buf, 0); err != nil {
				errs[w] = err
				return
			}
			if !bytes.Equal(buf, data) {
				errs[w] = errors.New("data mismatch")
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := dev.Snapshot().Reads; got != 1 {
		t.Fatalf("single-flight: want 1 device read for %d concurrent misses, got %d", workers, got)
	}
	st := c.Stats()
	// A lookup that merged onto the in-flight fill counts as a hit too.
	if st.Misses != 1 || st.Hits != workers-1 || st.MergedFills > st.Hits {
		t.Fatalf("want 1 miss and %d hits, some of them merged, got %+v", workers-1, st)
	}
}

// failingStore returns an error for the first n reads, then succeeds.
type failingStore struct {
	*MemStore
	mu    sync.Mutex
	fails int
	reads int
}

func (s *failingStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	s.mu.Lock()
	s.reads++
	fail := s.reads <= s.fails
	s.mu.Unlock()
	if fail {
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

// gatedStore blocks every read until the gate channel is closed, then
// returns the configured error. It lets a test park one worker mid-fill
// while another merges onto the in-flight page.
type gatedStore struct {
	*MemStore
	gate    chan struct{}
	started chan struct{}
	err     error

	once sync.Once
}

func (s *gatedStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	s.once.Do(func() { close(s.started) })
	<-s.gate
	if s.err != nil {
		return s.err
	}
	return s.MemStore.ReadAt(clock, p, off)
}

// TestCacheSingleFlightErrorPropagates pins down the failed-fill contract
// under concurrency: when a fill errors while another worker is merged
// onto it, *both* workers observe the error and the page is not installed,
// so a later read retries the device instead of serving a poisoned page.
func TestCacheSingleFlightErrorPropagates(t *testing.T) {
	mem := NewMemStore(nil, 0)
	data := fillStore(t, mem, DefaultChunkSize)
	inner := &gatedStore{
		MemStore: mem,
		gate:     make(chan struct{}),
		started:  make(chan struct{}),
		err:      &CorruptionError{Store: "gated", Block: 0},
	}

	c := NewPageCache(1<<20, 0, numa.CostModel{})
	cs := c.Wrap(inner)

	errA := make(chan error, 1)
	go func() {
		buf := make([]byte, DefaultChunkSize)
		errA <- cs.ReadAt(vtime.NewClock(0), buf, 0)
	}()
	// Wait until worker A is inside the fill (page reserved, filling=true).
	<-inner.started
	if c.Pages() != 1 {
		t.Fatalf("in-flight fill should reserve 1 page, got %d", c.Pages())
	}

	errB := make(chan error, 1)
	go func() {
		buf := make([]byte, DefaultChunkSize)
		errB <- cs.ReadAt(vtime.NewClock(0), buf, 0)
	}()
	// Wait until worker B has merged onto A's fill.
	for c.Stats().MergedFills == 0 {
		runtime.Gosched()
	}

	// Release the fill; it fails.
	close(inner.gate)
	for i, ch := range []chan error{errA, errB} {
		if err := <-ch; !errors.Is(err, ErrCorrupt) {
			t.Fatalf("worker %d: want ErrCorrupt, got %v", i, err)
		}
	}
	if c.Pages() != 0 {
		t.Fatalf("failed fill left %d pages installed", c.Pages())
	}

	// The store recovers; the next read must go back to the device and
	// succeed (nothing poisoned stayed behind).
	inner.err = nil
	buf := make([]byte, DefaultChunkSize)
	if err := cs.ReadAt(vtime.NewClock(0), buf, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("recovered read returned wrong data")
	}
	if c.Pages() != 1 {
		t.Fatalf("recovered read should cache 1 page, got %d", c.Pages())
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
	sum := CacheStats{}.Add(before).Add(delta)
	if sum.Hits != c.Stats().Hits || sum.CapacityBytes != c.CapacityBytes() {
		t.Fatalf("Add lost counters: %+v vs %+v", sum, c.Stats())
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

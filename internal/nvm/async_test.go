package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// countingBase is a MemStore that counts the read requests reaching the
// media, so tests can assert how much the layers above coalesced.
type countingBase struct {
	*MemStore
	reads atomic.Int64
}

func (s *countingBase) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	s.reads.Add(1)
	return s.MemStore.ReadAt(clock, p, off)
}

// newAsyncStack builds base -> cache -> async with the given queue depth
// and returns the pieces. block is the cache page size.
func newAsyncStack(t *testing.T, nblocks, block, depth int) (*countingBase, *CachedStore, Storage, []byte) {
	t.Helper()
	base := &countingBase{MemStore: NewNamedMemStore("asynctest", nil, block)}
	cache := NewPageCache(int64(nblocks*block), block, numa.CostModel{})
	cached := cache.Wrap(base)
	st := WrapAsync(cached, "asynctest", depth)
	data := make([]byte, nblocks*block)
	for i := range data {
		data[i] = byte(i*37 + i/block)
	}
	if err := st.WriteAt(nil, data, 0); err != nil {
		t.Fatal(err)
	}
	return base, cached, st, data
}

func TestWrapAsyncPassThrough(t *testing.T) {
	inner := NewNamedMemStore("inner", nil, 256)
	if got := WrapAsync(inner, "x", 0); got != Storage(inner) {
		t.Errorf("WrapAsync depth 0 = %T, want the inner store unchanged", got)
	}
	if got := WrapAsync(inner, "x", -3); got != Storage(inner) {
		t.Errorf("WrapAsync depth -3 = %T, want the inner store unchanged", got)
	}
	a, ok := WrapAsync(inner, "x", 4).(*AsyncStore)
	if !ok {
		t.Fatal("WrapAsync depth 4 did not return an *AsyncStore")
	}
	if a.QueueDepth() != 4 {
		t.Errorf("QueueDepth = %d, want 4", a.QueueDepth())
	}
}

// TestAsyncDemandCoalescing checks that one multi-block demand read
// reaches the media as a single coalesced run, and that re-reading the
// span is served entirely from the cache.
func TestAsyncDemandCoalescing(t *testing.T) {
	const block, nblocks = 256, 16
	base, _, st, data := newAsyncStack(t, nblocks, block, 8)

	got := make([]byte, 8*block)
	clock := vtime.NewClock(0)
	if err := st.ReadAt(clock, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("demand read returned wrong bytes")
	}
	if n := base.reads.Load(); n != 1 {
		t.Errorf("media reads = %d, want 1 coalesced run for 8 blocks", n)
	}
	stats := StatsOf(st.(*AsyncStore))
	if runs := stats.Get("demand_runs"); runs != 1 {
		t.Errorf("demand_runs = %d, want 1", runs)
	}
	if blocks := stats.Get("demand_blocks"); blocks != 8 {
		t.Errorf("demand_blocks = %d, want 8", blocks)
	}

	// Second read of the same span: every block is resident, so the
	// pipeline has nothing to fill and the media sees no new requests.
	if err := st.ReadAt(clock, got, 0); err != nil {
		t.Fatal(err)
	}
	if n := base.reads.Load(); n != 1 {
		t.Errorf("media reads after resident re-read = %d, want 1", n)
	}
	if blocks := StatsOf(st.(*AsyncStore)).Get("demand_blocks"); blocks != 8 {
		t.Errorf("demand_blocks after resident re-read = %d, want 8", blocks)
	}
}

// TestAsyncPrefetch checks that prefetched spans are filled with coalesced
// runs and later demand reads hit the cache without new media traffic.
func TestAsyncPrefetch(t *testing.T) {
	const block, nblocks = 256, 16
	base, cached, st, data := newAsyncStack(t, nblocks, block, 8)

	pf, ok := st.(Prefetcher)
	if !ok {
		t.Fatal("async store does not implement Prefetcher")
	}
	clock := vtime.NewClock(0)
	pf.Prefetch(clock, 4*block, 6*block)
	if n := base.reads.Load(); n != 1 {
		t.Errorf("media reads after prefetch = %d, want 1 coalesced run", n)
	}
	stats := StatsOf(st.(*AsyncStore))
	if ops, runs, blocks := stats.Get("prefetch_ops"), stats.Get("prefetch_runs"), stats.Get("prefetch_blocks"); ops != 1 || runs != 1 || blocks != 6 {
		t.Errorf("prefetch ops/runs/blocks = %d/%d/%d, want 1/1/6", ops, runs, blocks)
	}

	got := make([]byte, block)
	if err := st.ReadAt(clock, got, 5*block); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[5*block:6*block]) {
		t.Fatal("demand read of prefetched block returned wrong bytes")
	}
	if n := base.reads.Load(); n != 1 {
		t.Errorf("media reads after demand hit = %d, want 1", n)
	}
	cs := cached.Cache().Stats()
	if cs.PrefetchHits == 0 {
		t.Errorf("PrefetchHits = 0, want > 0")
	}

	// Overlapping prefetch: resident blocks are skipped, only the two
	// missing ones are filled, in one run.
	pf.Prefetch(clock, 2*block, 4*block)
	if n := base.reads.Load(); n != 2 {
		t.Errorf("media reads after overlapping prefetch = %d, want 2", n)
	}
	if blocks := StatsOf(st.(*AsyncStore)).Get("prefetch_blocks"); blocks != 8 {
		t.Errorf("prefetch_blocks = %d, want 8 (6 + 2 deduped)", blocks)
	}
}

// TestAsyncSlotQueue drives the virtual slot queue directly: requests are
// issued at max(now, earliest slot free time), so at most QueueDepth fills
// overlap at any virtual instant.
func TestAsyncSlotQueue(t *testing.T) {
	inner := NewNamedMemStore("inner", nil, 256)
	a := WrapAsync(inner, "x", 2).(*AsyncStore)

	s0, at := a.acquire(10)
	if at != 10 {
		t.Errorf("first acquire issue time = %v, want 10", at)
	}
	s1, at := a.acquire(10)
	if at != 10 {
		t.Errorf("second acquire issue time = %v, want 10 (free slot)", at)
	}
	if s0 == s1 {
		t.Fatalf("both acquires picked slot %d", s0)
	}
	a.release(s0, 100)
	a.release(s1, 50)
	// Both slots busy: a request submitted at 10 waits for the earliest
	// completion (50), not the latest.
	_, at = a.acquire(10)
	if at != 50 {
		t.Errorf("issue time with slots busy until {100, 50} = %v, want 50", at)
	}
	// A request submitted after every slot is free issues immediately.
	a2 := WrapAsync(inner, "y", 1).(*AsyncStore)
	s, at := a2.acquire(7)
	if at != 7 {
		t.Errorf("issue time on idle queue = %v, want 7", at)
	}
	a2.release(s, 3) // completion before issue never rewinds the slot
	if a2.slots[s] != 7 {
		t.Errorf("slot time after early release = %v, want 7", a2.slots[s])
	}
}

// TestAsyncCancel checks that a cancelled pipeline stops issuing fills but
// demand reads keep working through the synchronous path.
func TestAsyncCancel(t *testing.T) {
	const block, nblocks = 256, 16
	base, _, st, data := newAsyncStack(t, nblocks, block, 8)
	a := st.(*AsyncStore)

	a.Cancel()
	a.Prefetch(nil, 0, 4*block)
	if n := base.reads.Load(); n != 0 {
		t.Errorf("media reads after cancelled prefetch = %d, want 0", n)
	}
	got := make([]byte, 4*block)
	if err := st.ReadAt(nil, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("demand read after cancel returned wrong bytes")
	}
	stats := StatsOf(a)
	if c := stats.Get("cancelled_requests"); c < 2 {
		t.Errorf("cancelled_requests = %d, want >= 2", c)
	}
	if runs := stats.Get("demand_runs"); runs != 0 {
		t.Errorf("demand_runs after cancel = %d, want 0 (sync path)", runs)
	}
}

// TestAsyncConcurrentSubmitCancel interleaves demand reads from four
// workers, each on its own clock, with prefetches through a full stack
// (retry -> async -> cache -> checksum -> base), while the device dies
// and the pipeline is cancelled mid-traffic. A storage stack belongs to
// one goroutine, so a seeded schedule on this goroutine stands in for the
// submitters; each seed puts the death and the Cancel at different points
// and in either order. Every read must return the written bytes or an
// error that classifies under the storage taxonomy: before the death,
// always the bytes.
func TestAsyncConcurrentSubmitCancel(t *testing.T) {
	const chunk = 256
	const nblocks = 64
	const readers = 4
	const ops = 1500
	data := make([]byte, nblocks*chunk)
	for i := range data {
		data[i] = byte(i * 131)
	}

	orders := make(map[bool]bool)
	for seed := uint64(1); seed <= 4; seed++ {
		var bases []*injectStore
		st, err := BuildStack(StackSpec{
			Name:  "asyncsched",
			Chunk: chunk,
			Base: func(name string, chunk int) (Storage, error) {
				b := &injectStore{MemStore: NewNamedMemStore(name, nil, chunk)}
				bases = append(bases, b)
				return b, nil
			},
			Checksum:   true,
			Retry:      RetryPolicy{MaxAttempts: 2},
			Cache:      NewPageCache(int64(nblocks*chunk/2), chunk, numa.CostModel{}),
			QueueDepth: 4,
			BaseChunk:  8 * chunk,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteAt(nil, data, 0); err != nil {
			t.Fatal(err)
		}
		var async *AsyncStore
		WalkStack(st, func(s Storage) {
			if a, ok := s.(*AsyncStore); ok && async == nil {
				async = a
			}
		})
		if async == nil || len(bases) != 1 {
			t.Fatal("stack lacks an async layer or a single base")
		}
		pf := StackPrefetcher(st)

		g := rng.NewXoroshiro128(seed)
		dieOp := ops/4 + int(g.Uint64n(ops/2))
		cancelOp := ops/4 + int(g.Uint64n(ops/2))
		orders[dieOp < cancelOp] = true
		clocks := make([]*vtime.Clock, readers+1)
		for i := range clocks {
			clocks[i] = vtime.NewClock(0)
		}
		buf := make([]byte, 4*chunk)
		outcomes := make(map[string]int)
		for op := 0; op < ops; op++ {
			if op == dieOp {
				bases[0].fail = fmt.Errorf("injected death: %w", ErrDeviceDead)
			}
			if op == cancelOp {
				async.Cancel()
			}
			w := int(g.Uint64n(readers + 1))
			if w == readers {
				off := int64(g.Uint64n(nblocks-8) * chunk)
				pf.Prefetch(clocks[w], off, 8*chunk)
				continue
			}
			off := int64(g.Uint64n(nblocks-4) * chunk)
			err := st.ReadAt(clocks[w], buf, off)
			switch {
			case err == nil:
				if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
					t.Fatalf("seed %d op %d: reader %d: wrong bytes at %d", seed, op, w, off)
				}
				outcomes["ok"]++
			case op < dieOp:
				t.Fatalf("seed %d op %d: reader %d: read at %d failed before the device died: %v", seed, op, w, off, err)
			case errors.Is(err, ErrDeviceDead) || errors.Is(err, ErrTransient):
				outcomes["failed"]++
			default:
				t.Fatalf("seed %d op %d: reader %d: unclassified error: %v", seed, op, w, err)
			}
		}
		if outcomes["ok"] == 0 || outcomes["failed"] == 0 {
			t.Fatalf("seed %d: read outcomes %v, want both successes and surfaced deaths", seed, outcomes)
		}
		if c := StatsOf(async).Get("cancelled_requests"); c == 0 {
			t.Fatalf("seed %d: no request met the cancelled pipeline", seed)
		}
		st.Close()
	}
	if len(orders) != 2 {
		t.Fatalf("the seeds put the death and the Cancel in one order only: %v", orders)
	}
}

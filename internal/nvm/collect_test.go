package nvm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// The Collector plans a set of stacks' storage record once and reads it
// by position. refCollectStacks and refCollectReplicaHealth are the
// collection it replaced, which walked the stacks, keyed a map and merged
// counters by name on every call; the tests below drive seeded
// one-goroutine traces and require the Collector's totals, per-interval
// deltas and replica health to equal theirs at every checkpoint.

func refCollectStacks(stores ...nvm.Storage) nvm.StackStats {
	var out nvm.StackStats
	seen := make(map[any]bool)
	for _, st := range stores {
		nvm.WalkStack(st, func(s nvm.Storage) {
			l, ok := s.(nvm.Layer)
			if !ok {
				return
			}
			key := any(s)
			if k, ok := s.(nvm.StatsKeyed); ok {
				key = k.StatsKey()
			}
			if seen[key] {
				return
			}
			seen[key] = true
			ls := nvm.StatsOf(l)
			for i := range out {
				if out[i].Kind == ls.Kind {
					out[i] = refAddLayer(out[i], ls)
					return
				}
			}
			out = append(out, ls)
		})
	}
	return out
}

// refAddLayer merges o's counters into l by name: counters sum, gauges
// keep the first non-zero value.
func refAddLayer(l, o nvm.LayerStats) nvm.LayerStats {
	for _, oc := range o.Counters {
		found := false
		for i := range l.Counters {
			if l.Counters[i].Name == oc.Name {
				if oc.Gauge {
					if l.Counters[i].Value == 0 {
						l.Counters[i].Value = oc.Value
					}
				} else {
					l.Counters[i].Value += oc.Value
				}
				found = true
				break
			}
		}
		if !found {
			l.Counters = append(l.Counters, oc)
		}
	}
	return l
}

func refCollectReplicaHealth(stores ...nvm.Storage) []nvm.ReplicaHealth {
	var sets [][]nvm.ReplicaHealth
	seen := make(map[*nvm.MirrorStore]bool)
	for _, st := range stores {
		nvm.WalkStack(st, func(s nvm.Storage) {
			if m, ok := s.(*nvm.MirrorStore); ok && !seen[m] {
				seen[m] = true
				sets = append(sets, m.Health())
			}
		})
	}
	if len(sets) == 0 {
		return nil
	}
	severity := map[nvm.ReplicaState]int{nvm.ReplicaDead: 3, nvm.ReplicaSuspect: 2, nvm.ReplicaRebuilt: 1}
	var out []nvm.ReplicaHealth
	for _, set := range sets {
		for i, h := range set {
			for len(out) <= i {
				out = append(out, nvm.ReplicaHealth{Name: fmt.Sprintf("r%d", len(out))})
			}
			m := &out[i]
			if severity[h.State] > severity[m.State] {
				m.State = h.State
			}
			m.Reads += h.Reads
			m.Errors += h.Errors
			m.Consecutive += h.Consecutive
			m.ScrubbedBlocks += h.ScrubbedBlocks
			m.RepairedBlocks += h.RepairedBlocks
			m.RepairHist = m.RepairHist.Add(h.RepairHist)
		}
	}
	return out
}

// RefCollection tracks one set of stacks both ways: a Collector planned
// once, and the reference walked at every checkpoint. It also records
// every layer's counter names and gauge flags at the start, which the plan
// relies on staying fixed.
type refCollection struct {
	t         testing.TB
	stores    []nvm.Storage
	c         *nvm.Collector
	before    []int64
	refBefore nvm.StackStats
	shapes    map[nvm.Layer][]nvm.Counter
	checks    int
}

func newRefCollection(t testing.TB, stores ...nvm.Storage) *refCollection {
	r := &refCollection{t: t, stores: stores, c: nvm.NewCollector(stores...), shapes: make(map[nvm.Layer][]nvm.Counter)}
	r.before = r.c.Snapshot(nil)
	r.refBefore = refCollectStacks(stores...)
	for _, st := range stores {
		nvm.WalkStack(st, func(s nvm.Storage) {
			if l, ok := s.(nvm.Layer); ok {
				r.shapes[l] = counterShape(l)
			}
		})
	}
	return r
}

// counterShape is l's counters with their values zeroed.
func counterShape(l nvm.Layer) []nvm.Counter {
	cs := l.AppendCounters(nil)
	for i := range cs {
		cs[i].Value = 0
	}
	return cs
}

// check compares totals, the delta since the previous checkpoint and the
// replica health with the reference's, and every layer's counter names
// with the first call's.
func (r *refCollection) check(label string) {
	r.t.Helper()
	r.checks++
	after := r.c.Snapshot(nil)
	refAfter := refCollectStacks(r.stores...)
	if got := r.c.Totals(); !reflect.DeepEqual(got, refAfter) {
		r.t.Fatalf("%s: totals\n got %v\nwant %v", label, got, refAfter)
	}
	if got := nvm.CollectStacks(r.stores...); !reflect.DeepEqual(got, refAfter) {
		r.t.Fatalf("%s: CollectStacks\n got %v\nwant %v", label, got, refAfter)
	}
	if got, want := r.c.Stats(r.before, after), refAfter.Sub(r.refBefore); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("%s: delta\n got %v\nwant %v", label, got, want)
	}
	want := refCollectReplicaHealth(r.stores...)
	for _, got := range [][]nvm.ReplicaHealth{r.c.Health(), nvm.CollectReplicaHealth(r.stores...)} {
		if !reflect.DeepEqual(got, want) {
			r.t.Fatalf("%s: health\n got %s\nwant %s", label, healthLine(got), healthLine(want))
		}
	}
	for l, shape := range r.shapes {
		if got := counterShape(l); !reflect.DeepEqual(got, shape) {
			r.t.Fatalf("%s: %s layer's counters changed shape:\n got %v\nwant %v", label, l.Kind(), got, shape)
		}
	}
	r.before, r.refBefore = after, refAfter
}

func healthLine(hs []nvm.ReplicaHealth) string {
	var b strings.Builder
	for _, h := range hs {
		fmt.Fprintf(&b, "[%s %v reads %d errors %d consecutive %d scrubbed %d repaired %d hist %d/%d] ",
			h.Name, h.State, h.Reads, h.Errors, h.Consecutive, h.ScrubbedBlocks, h.RepairedBlocks, h.RepairHist.Count, h.RepairHist.Sum)
	}
	return b.String()
}

// driveStacks runs a seeded trace of reads, readahead and whole-block
// writes over the stores (compute time between requests moves the clock
// past scrub steps), checking the collection every checkEvery ops. Read
// and write errors are part of the trace: the counters record them. at, if
// set, runs before op i.
func driveStacks(t *testing.T, rc *refCollection, seed uint64, ops, checkEvery int, block int64, at func(i int, clock *vtime.Clock)) {
	t.Helper()
	clock := vtime.NewClock(0)
	g := rng.NewXoroshiro128(seed)
	buf := make([]byte, 3*block)
	for i := 0; i < ops; i++ {
		if at != nil {
			at(i, clock)
		}
		clock.Advance(vtime.Duration(g.Uint64n(uint64(20 * vtime.Microsecond))))
		st := rc.stores[g.Uint64n(uint64(len(rc.stores)))]
		size := st.Size()
		switch kind := g.Uint64n(100); {
		case kind < 60:
			off := int64(g.Uint64n(uint64(size)))
			n := min(1+int64(g.Uint64n(uint64(len(buf)))), size-off)
			_ = st.ReadAt(clock, buf[:n], off)
		case kind < 75:
			if pf := nvm.StackPrefetcher(st); pf != nil {
				off := int64(g.Uint64n(uint64(size)))
				pf.Prefetch(clock, off, min(4*block, size-off))
			}
		default:
			off := int64(g.Uint64n(uint64(size/block))) * block
			n := min(block, size-off)
			for k := range buf[:n] {
				buf[k] = byte(rng.Mix64(uint64(i)<<20 ^ uint64(off+int64(k))))
			}
			_ = st.WriteAt(clock, buf[:n], off)
		}
		if (i+1)%checkEvery == 0 {
			rc.check(fmt.Sprintf("op %d", i))
		}
	}
}

// seedStores writes every store's initial contents.
func seedStores(t *testing.T, stores []nvm.Storage, size int64) {
	t.Helper()
	data := make([]byte, size)
	for off := range data {
		data[off] = stackPinByte(int64(off), 0)
	}
	for _, st := range stores {
		if err := st.WriteAt(vtime.NewClock(0), data, 0); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
}

// find returns the first layer of type T in st's stack whose name-bearing
// predicate holds (nil pred: the first of type T).
func find[T nvm.Storage](st nvm.Storage, pred func(T) bool) T {
	var found T
	done := false
	nvm.WalkStack(st, func(s nvm.Storage) {
		if l, ok := s.(T); ok && !done && (pred == nil || pred(l)) {
			found, done = l, true
		}
	})
	return found
}

// TestCollectorMatchesReferenceFullStack is the pinned full stack
// (TestStackPins' spec) under transient and corrupt reads, the death of
// replica 1's media, background scrub repairs, and a revive and Rebuild of
// the dead replica: the Collector reads the same stacks it planned, since
// Rebuild rewrites into the existing replica stores.
func TestCollectorMatchesReferenceFullStack(t *testing.T) {
	_, route := nvm.NewReplicaDevices(nvm.ProfileIoDrive2, 2, 0)
	ff := faults.NewFactory(func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, route(name), chunk), nil
	}, faults.Config{
		Seed: 34, TransientRate: 0.05, CorruptRate: 0.03,
		DieAfterReads: 900, DieReplica: 2,
	})
	cache := nvm.NewPageCache(24*stackPinBlock, stackPinBlock, numa.CostModel{})
	stack, err := nvm.BuildStack(nvm.StackSpec{
		Name:       "pin",
		Chunk:      stackPinBlock,
		Base:       ff.Make,
		Checksum:   true,
		Replicas:   2,
		Mirror:     nvm.MirrorConfig{ScrubInterval: 40 * vtime.Microsecond},
		Cache:      cache,
		QueueDepth: 2,
		BaseChunk:  4 * stackPinBlock,
		Retry:      nvm.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * vtime.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	stores := []nvm.Storage{stack}
	seedStores(t, stores, stackPinBlocks*stackPinBlock)
	mirror := find[*nvm.MirrorStore](stack, nil)
	media := find(stack, func(s *faults.Store) bool { return strings.HasSuffix(s.Name(), "-r1") })
	if mirror == nil || media == nil {
		t.Fatal("stack lacks a mirror or replica 1's fault injector")
	}

	rc := newRefCollection(t, stores...)
	var deadSeen bool
	driveStacks(t, rc, 20140519, 4000, 97, stackPinBlock, func(i int, clock *vtime.Clock) {
		switch i {
		case 1500:
			cache.Reset()
		case 3000:
			if h := mirror.Health(); h[1].State != nvm.ReplicaDead {
				t.Fatalf("replica 1 is %v by op 3000, want dead", h[1].State)
			}
			deadSeen = true
			rc.check("dead replica")
			media.Revive()
			// A transient or corrupt read of the source fails a rebuild (about
			// one block in twelve here); run it again until one gets through.
			err := mirror.Rebuild(clock, 1)
			for try := 0; err != nil && try < 1000; try++ {
				err = mirror.Rebuild(clock, 1)
			}
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			rc.check("rebuilt replica")
		}
	})
	rc.check("end")
	totals := rc.c.Totals()
	for _, c := range []struct{ kind, name string }{
		{"mirror", "failovers"}, {"mirror", "repaired_blocks"}, {"mirror", "rebuilt_blocks"},
		{"checksum", "corruptions_detected"}, {"faults", "corruptions_injected"}, {"retry", "retries"},
		{"cache", "evictions"}, {"async", "prefetch_blocks"},
	} {
		if totals.Get(c.kind, c.name) == 0 {
			t.Errorf("the trace never moved %s.%s", c.kind, c.name)
		}
	}
	if !deadSeen || rc.checks < 40 {
		t.Fatalf("%d checkpoints, dead replica seen %v", rc.checks, deadSeen)
	}
}

// opaqueStore is a test double that is not a Layer but exposes what it
// wraps, so walks descend through it; bareStore exposes nothing, so walks
// stop at it.
type opaqueStore struct{ nvm.Storage }

func (o opaqueStore) Unwrap() nvm.Storage { return o.Storage }

type bareStore struct{ nvm.Storage }

// TestCollectorMatchesReferenceSharedAndMixed covers the dedup and merge
// rules the full stack does not: two stores sharing one PageCache (its
// counters charged once), mirrors of different widths merged index-wise
// (a 3-replica mirror beside 2-replica ones), and non-Layer doubles mid-
// stack and at a leaf.
func TestCollectorMatchesReferenceSharedAndMixed(t *testing.T) {
	const block = 256
	const size = 32 * block
	_, route := nvm.NewReplicaDevices(nvm.ProfileSSD320, 3, 0)
	ff := faults.NewFactory(func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, route(name), chunk), nil
	}, faults.Config{Seed: 9, TransientRate: 0.04, CorruptRate: 0.02, DieAfterReads: 700, DieReplica: 3})
	cache := nvm.NewPageCache(12*block, block, numa.CostModel{})
	build := func(name string, replicas int, shared *nvm.PageCache) nvm.Storage {
		st, err := nvm.BuildStack(nvm.StackSpec{
			Name: name, Chunk: block, Base: ff.Make, Checksum: true, Replicas: replicas,
			Mirror: nvm.MirrorConfig{ScrubInterval: 60 * vtime.Microsecond},
			Cache:  shared, QueueDepth: 2,
			Retry: nvm.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * vtime.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	// The mixed stack: metrics over an opaque double over a 2-replica
	// mirror whose replica 1 is bare media behind a leaf double.
	var reps []nvm.Storage
	for i := range 2 {
		base, _ := ff.Make(fmt.Sprintf("mixed-r%d", i), block)
		if i == 1 {
			base = bareStore{base}
		}
		ck, err := nvm.WrapChecksumNamed(base, fmt.Sprintf("mixed-r%d", i), block)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, ck)
	}
	mirror, err := nvm.NewMirror("mixed", reps, block, nvm.MirrorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := nvm.WrapMetrics(opaqueStore{mirror}, "mixed")

	for _, tc := range []struct {
		name   string
		stores []nvm.Storage
	}{
		{"shared-cache", []nvm.Storage{build("a", 2, cache), build("b", 2, cache)}},
		{"three-replicas", []nvm.Storage{build("c", 3, nil), build("d", 2, nil)}},
		{"non-layer-doubles", []nvm.Storage{mixed, build("e", 2, nil)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seedStores(t, tc.stores, size)
			rc := newRefCollection(t, tc.stores...)
			driveStacks(t, rc, 0xc011ec7, 3000, 61, block, nil)
			rc.check("end")
			// The same stores listed twice must not double-charge.
			twice := newRefCollection(t, append(tc.stores, tc.stores...)...)
			twice.check("stores listed twice")
			if got, want := twice.c.Totals(), rc.c.Totals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("listing the stores twice changed the totals:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestCollectorWithoutLayers: no stores, or stores that are not layers,
// plan an empty record, which reads as nil like the reference's.
func TestCollectorWithoutLayers(t *testing.T) {
	bare := bareStore{nvm.NewMemStore(nil, 64)}
	for _, stores := range [][]nvm.Storage{nil, {bare}} {
		c := nvm.NewCollector(stores...)
		snap := c.Snapshot(nil)
		if st := c.Stats(snap, c.Snapshot(nil)); st != nil || c.Totals() != nil || c.Health() != nil || len(snap) != 0 {
			t.Fatalf("%d stores: stats %v, totals %v, health %v, snapshot %v; want all empty",
				len(stores), st, c.Totals(), c.Health(), snap)
		}
		if refCollectStacks(stores...) != nil || refCollectReplicaHealth(stores...) != nil {
			t.Fatal("the reference collects something from no layers")
		}
	}
}

// BenchmarkRunStackStats is one run's storage record over a 4-node
// forward graph's stacks (an index and a value stack per node) on the full
// stack with 2 mirrored replicas: a before and an after snapshot, their
// delta and the replica health. "planned" is an engine's Collector,
// "walked" the reference collection every run used to repeat.
func BenchmarkRunStackStats(b *testing.B) {
	_, route := nvm.NewReplicaDevices(nvm.ProfileSSD320, 2, 0)
	ff := faults.NewFactory(func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, route(name), chunk), nil
	}, faults.Config{Seed: 1, TransientRate: 0.01})
	cache := nvm.NewPageCache(1<<20, nvm.DefaultChunkSize, numa.CostModel{})
	var stores []nvm.Storage
	for node := range 4 {
		for _, part := range []string{"idx", "val"} {
			st, err := nvm.BuildStack(nvm.StackSpec{
				Name: fmt.Sprintf("fwd-%d-%s", node, part), Base: ff.Make, Checksum: true,
				Replicas: 2, Mirror: nvm.MirrorConfig{ScrubInterval: vtime.Millisecond},
				Cache: cache, QueueDepth: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			stores = append(stores, st)
		}
	}
	b.Run("planned", func(b *testing.B) {
		c := nvm.NewCollector(stores...)
		var before, after []int64
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			before = c.Snapshot(before)
			after = c.Snapshot(after)
			runRecord.layers, runRecord.health = c.Stats(before, after), c.Health()
		}
	})
	b.Run("walked", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			before := refCollectStacks(stores...)
			runRecord.layers, runRecord.health = refCollectStacks(stores...).Sub(before), refCollectReplicaHealth(stores...)
		}
	})
	if runRecord.layers == nil || runRecord.health == nil {
		b.Fatal("empty record")
	}
}

// runRecord keeps BenchmarkRunStackStats' results live.
var runRecord struct {
	layers nvm.StackStats
	health []nvm.ReplicaHealth
}

package nvm

import "semibfs/internal/vtime"

// This file defines the uniform middleware contract every storage
// decorator implements. The NVM data path is a *stack of concerns* —
// metrics, retry/backoff, page cache, mirroring, checksums, fault
// injection, base media — and each concern is an ordinary Storage that
// additionally reports what kind of layer it is, exposes its counters in
// one generic shape, and names the layer(s) underneath it. That lets the
// BFS engine, the graph500 driver, and the CLIs walk any stack, collect
// per-layer statistics, and diff them per run without knowing which
// concerns a particular scenario enabled.

// Layer is the uniform interface every storage middleware implements on
// top of Storage. Base stores (MemStore, FileStore) are layers too, with
// a nil Unwrap.
type Layer interface {
	Storage
	// Kind names the concern ("metrics", "retry", "cache", "mirror",
	// "checksum", "faults", "mem", "file"). Stacks may not repeat kinds.
	Kind() string
	// Stats snapshots the layer's counters.
	Stats() LayerStats
	// Unwrap returns the layer directly underneath, or nil for base
	// stores and fan-out layers (a mirror exposes Inners instead).
	Unwrap() Storage
}

// FanOut is implemented by layers that sit on several substacks at once
// (the mirror). Walkers descend into every inner stack.
type FanOut interface {
	Inners() []Storage
}

// StatsKeyed is implemented by layers whose counters live in a shared
// object (a CachedStore's counters belong to its PageCache, which many
// stores share). Collection dedupes on the key so shared counters are
// charged once per walk, not once per store.
type StatsKeyed interface {
	StatsKey() any
}

// Counter is one named statistic of a layer. Gauge marks configuration-
// like values (capacities, block sizes, limits) that describe the layer
// rather than accumulate: per-run deltas keep them instead of
// subtracting, and aggregation takes the first non-zero value instead of
// summing.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Gauge bool   `json:"gauge,omitempty"`
}

// LayerStats is one layer's counter snapshot.
type LayerStats struct {
	Kind     string    `json:"kind"`
	Counters []Counter `json:"counters"`
}

// Get returns the named counter's value (0 when absent).
func (l LayerStats) Get(name string) int64 {
	for _, c := range l.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// add merges o's counters into l by name: counters sum, gauges keep the
// first non-zero value.
func (l LayerStats) add(o LayerStats) LayerStats {
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

// StackStats is the per-layer statistics of one or more storage stacks,
// ordered top-down (outermost layer first). Layers of the same kind
// across stores are aggregated into one entry.
type StackStats []LayerStats

// Get returns counter name of layer kind (0 when either is absent).
func (s StackStats) Get(kind, name string) int64 {
	for _, l := range s {
		if l.Kind == kind {
			return l.Get(name)
		}
	}
	return 0
}

// Layer returns the entry for kind and whether it is present.
func (s StackStats) Layer(kind string) (LayerStats, bool) {
	for _, l := range s {
		if l.Kind == kind {
			return l, true
		}
	}
	return LayerStats{}, false
}

// clone deep-copies s so Sub/Add never alias the receiver's counters.
func (s StackStats) clone() StackStats {
	out := make(StackStats, len(s))
	for i, l := range s {
		out[i] = LayerStats{Kind: l.Kind, Counters: append([]Counter(nil), l.Counters...)}
	}
	return out
}

// Sub returns s minus o, matched by layer kind and counter name, for
// per-run deltas over cumulative counters. Gauges keep s's value.
func (s StackStats) Sub(o StackStats) StackStats {
	out := s.clone()
	for i, l := range out {
		ol, ok := o.Layer(l.Kind)
		if !ok {
			continue
		}
		for j := range l.Counters {
			if !l.Counters[j].Gauge {
				out[i].Counters[j].Value -= ol.Get(l.Counters[j].Name)
			}
		}
	}
	return out
}

// Add returns s plus o: layers merge by kind (o's extra layers append in
// order), counters sum by name, gauges take the first non-zero value.
func (s StackStats) Add(o StackStats) StackStats {
	out := s.clone()
	for _, ol := range o {
		merged := false
		for i := range out {
			if out[i].Kind == ol.Kind {
				out[i] = out[i].add(ol)
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, LayerStats{Kind: ol.Kind, Counters: append([]Counter(nil), ol.Counters...)})
		}
	}
	return out
}

// CacheView reconstructs a CacheStats snapshot from the "cache" layer's
// counters (the zero value when no cache layer is present), for reports
// that predate the generic layer plumbing.
func (s StackStats) CacheView() CacheStats {
	l, ok := s.Layer("cache")
	if !ok {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          l.Get("hits"),
		Misses:        l.Get("misses"),
		HitBytes:      l.Get("hit_bytes"),
		FillBytes:     l.Get("fill_bytes"),
		Evictions:     l.Get("evictions"),
		Prefetches:    l.Get("prefetches"),
		PrefetchHits:  l.Get("prefetch_hits"),
		MergedFills:   l.Get("merged_fills"),
		CapacityBytes: l.Get("capacity_bytes"),
		BlockBytes:    l.Get("block_bytes"),
	}
}

// WalkStack visits root and every layer reachable underneath it through
// Unwrap and Inners, outermost first, calling fn on each.
func WalkStack(root Storage, fn func(Storage)) {
	if root == nil {
		return
	}
	fn(root)
	if f, ok := root.(FanOut); ok {
		for _, in := range f.Inners() {
			WalkStack(in, fn)
		}
	}
	if l, ok := root.(interface{ Unwrap() Storage }); ok {
		WalkStack(l.Unwrap(), fn)
	}
}

// CollectStacks walks every given stack and aggregates per-layer
// statistics, outermost-first, deduping layers that share counters (all
// CachedStores of one PageCache report once). Storage values that do not
// implement Layer (bare test doubles) contribute nothing but do not stop
// the walk above them.
func CollectStacks(stores ...Storage) StackStats {
	var out StackStats
	seen := make(map[any]bool)
	for _, st := range stores {
		WalkStack(st, func(s Storage) {
			l, ok := s.(Layer)
			if !ok {
				return
			}
			key := any(s)
			if k, ok := s.(StatsKeyed); ok {
				key = k.StatsKey()
			}
			if seen[key] {
				return
			}
			seen[key] = true
			ls := l.Stats()
			merged := false
			for i := range out {
				if out[i].Kind == ls.Kind {
					out[i] = out[i].add(ls)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, ls)
			}
		})
	}
	return out
}

// CollectReplicaHealth walks the given stacks, finds every mirror, and
// merges their per-replica health index-wise (replica i of every store
// lives on simulated device i). Matching is by the Health method rather
// than the concrete type, so ArrayStore's embedded mirror is found too.
func CollectReplicaHealth(stores ...Storage) []ReplicaHealth {
	type healthy interface{ Health() []ReplicaHealth }
	var sets [][]ReplicaHealth
	seen := make(map[any]bool)
	for _, st := range stores {
		WalkStack(st, func(s Storage) {
			if m, ok := s.(healthy); ok && !seen[m] {
				seen[m] = true
				sets = append(sets, m.Health())
			}
		})
	}
	if len(sets) == 0 {
		return nil
	}
	return MergeReplicaHealth(sets...)
}

// Prefetcher is implemented by layers that can fill [off, off+n) into
// DRAM asynchronously (AsyncStore, CachedStore). The worker's clock marks
// the issue time; the caller never waits.
type Prefetcher interface {
	Prefetch(clock *vtime.Clock, off, n int64)
}

// StackPrefetcher returns the outermost Prefetcher in the stack, or nil.
// Readers use it to issue readahead at the highest layer that understands
// it: the async pipeline when present (coalesced, queue-bounded),
// otherwise the page cache's block-at-a-time fills.
func StackPrefetcher(root Storage) Prefetcher {
	var found Prefetcher
	WalkStack(root, func(s Storage) {
		if p, ok := s.(Prefetcher); ok && found == nil {
			found = p
		}
	})
	return found
}

// StackCache returns the first CachedStore found in the stack, or nil.
// Readers use it to issue readahead through the cache layer.
func StackCache(root Storage) *CachedStore {
	var found *CachedStore
	WalkStack(root, func(s Storage) {
		if c, ok := s.(*CachedStore); ok && found == nil {
			found = c
		}
	})
	return found
}

// StackPhysicalBytes returns the real NVM footprint of a stack: the first
// layer exposing PhysicalBytes (a mirror's replicas sum) wins, otherwise
// the stack's logical size.
func StackPhysicalBytes(root Storage) int64 {
	var phys int64
	found := false
	WalkStack(root, func(s Storage) {
		if p, ok := s.(interface{ PhysicalBytes() int64 }); ok && !found {
			found = true
			phys = p.PhysicalBytes()
		}
	})
	if found {
		return phys
	}
	if root == nil {
		return 0
	}
	return root.Size()
}

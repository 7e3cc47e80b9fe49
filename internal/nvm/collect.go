package nvm

import "fmt"

// Collector is the storage record of a fixed set of stacks, planned once:
// the layers a walk reaches (deduplicated, StatsKeyed ones on their shared
// key), the slot each layer's counters land in within the merged
// StackStats shape, and the mirrors. A Snapshot then reads every counter
// into an []int64 without allocating, and a run's per-layer delta and its
// replica health are built straight from the plan.
//
// The merge rule is StackStats.Add's and Sub's: layers merge by kind in
// first-seen order, counters sum by name, gauges take the first non-zero
// value, and a delta keeps a gauge's later value. The plan relies on two
// facts: the stacks do not change under it (a mirror's Rebuild rewrites
// into its existing replica stores), and every layer reports the same
// counter names in the same order on every AppendCounters call.
//
// Like the stacks it reads, a Collector is for one goroutine at a time.
type Collector struct {
	layers []Layer
	// Layer i's counters are entries offs[i]:offs[i+1] of slot, which
	// holds the merged slot each one lands in.
	offs []int
	slot []int
	// The merged shape: kind k owns slots ends[k-1]:ends[k], and every
	// slot has a counter name and a gauge flag (the first-seen layer's).
	kinds []string
	ends  []int
	names []string
	gauge []bool

	mirrors []*MirrorStore
	// replicaNames names merged replica i "r<i>" (see MergeReplicaHealth).
	replicaNames []string

	buf []Counter // AppendCounters scratch
}

// NewCollector walks every given stack once (outermost first, as WalkStack
// does) and plans its storage record. Storage values that do not implement
// Layer (bare test doubles) contribute nothing but do not stop the walk
// above them. With no layers the record is empty: Stats returns nil.
func NewCollector(stores ...Storage) *Collector {
	c := &Collector{offs: []int{0}}
	type shape struct {
		names []string
		gauge []bool
	}
	var shapes []shape
	var kindOf, nameOf []int // per layer counter: its kind and index within it
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
			c.layers = append(c.layers, l)
			if m, ok := s.(*MirrorStore); ok {
				c.mirrors = append(c.mirrors, m)
				for len(c.replicaNames) < len(m.reps) {
					c.replicaNames = append(c.replicaNames, fmt.Sprintf("r%d", len(c.replicaNames)))
				}
			}
			k := indexOf(c.kinds, l.Kind())
			if k < 0 {
				k = len(c.kinds)
				c.kinds = append(c.kinds, l.Kind())
				shapes = append(shapes, shape{})
			}
			c.buf = l.AppendCounters(c.buf[:0])
			for _, ctr := range c.buf {
				sh := &shapes[k]
				n := indexOf(sh.names, ctr.Name)
				if n < 0 {
					n = len(sh.names)
					sh.names = append(sh.names, ctr.Name)
					sh.gauge = append(sh.gauge, ctr.Gauge)
				}
				kindOf = append(kindOf, k)
				nameOf = append(nameOf, n)
			}
			c.offs = append(c.offs, len(kindOf))
		})
	}
	base := make([]int, len(shapes))
	for k, sh := range shapes {
		base[k] = len(c.names)
		c.names = append(c.names, sh.names...)
		c.gauge = append(c.gauge, sh.gauge...)
		c.ends = append(c.ends, len(c.names))
	}
	c.slot = make([]int, len(kindOf))
	for i, k := range kindOf {
		c.slot[i] = base[k] + nameOf[i]
	}
	return c
}

func indexOf(xs []string, x string) int {
	for i, s := range xs {
		if s == x {
			return i
		}
	}
	return -1
}

// Snapshot reads every planned counter into dst (grown to the plan's
// width when short) and returns it. It allocates nothing when dst is long
// enough, so a caller keeps one vector per baseline.
func (c *Collector) Snapshot(dst []int64) []int64 {
	if cap(dst) < len(c.names) {
		dst = make([]int64, len(c.names))
	}
	dst = dst[:len(c.names)]
	clear(dst)
	for i, l := range c.layers {
		c.buf = l.AppendCounters(c.buf[:0])
		slots := c.slot[c.offs[i]:c.offs[i+1]]
		if len(c.buf) != len(slots) {
			panic(fmt.Sprintf("nvm: %s layer reported %d counters, planned %d", l.Kind(), len(c.buf), len(slots)))
		}
		for j, ctr := range c.buf {
			s := slots[j]
			if !ctr.Gauge {
				dst[s] += ctr.Value
			} else if dst[s] == 0 {
				dst[s] = ctr.Value
			}
		}
	}
	return dst
}

// Stats returns snapshot after minus snapshot before in StackStats form
// (before nil: after's totals); gauges keep after's value. It allocates the
// StackStats and one Counter backing its layers share, each layer's slice
// capped at its own counters. Nil when the plan has no layers.
func (c *Collector) Stats(before, after []int64) StackStats {
	if len(c.kinds) == 0 {
		return nil
	}
	ctrs := make([]Counter, len(c.names))
	for s := range ctrs {
		v := after[s]
		if before != nil && !c.gauge[s] {
			v -= before[s]
		}
		ctrs[s] = Counter{Name: c.names[s], Value: v, Gauge: c.gauge[s]}
	}
	out := make(StackStats, len(c.kinds))
	lo := 0
	for k, kind := range c.kinds {
		hi := c.ends[k]
		out[k] = LayerStats{Kind: kind, Counters: ctrs[lo:hi:hi]}
		lo = hi
	}
	return out
}

// Totals returns the stacks' cumulative per-layer counters.
func (c *Collector) Totals() StackStats { return c.Stats(nil, c.Snapshot(nil)) }

// Health merges every planned mirror's per-replica health index-wise
// (replica i of every mirrored store lives on simulated device i) into one
// slice named "r<i>". Nil when the stacks hold no mirror.
func (c *Collector) Health() []ReplicaHealth {
	if len(c.mirrors) == 0 {
		return nil
	}
	out := make([]ReplicaHealth, len(c.replicaNames))
	for i := range out {
		out[i].Name = c.replicaNames[i]
	}
	for _, m := range c.mirrors {
		for i, rep := range m.reps {
			out[i].add(&rep.ReplicaHealth)
		}
	}
	return out
}

// CollectStacks walks every given stack and aggregates per-layer
// statistics, outermost-first, deduping layers that share counters (all
// CachedStores of one PageCache report once): a one-off Collector's
// Totals. An engine that reports per run plans its Collector once instead.
func CollectStacks(stores ...Storage) StackStats { return NewCollector(stores...).Totals() }

// CollectReplicaHealth walks the given stacks, finds every mirror, and
// merges their per-replica health index-wise: a one-off Collector's Health.
func CollectReplicaHealth(stores ...Storage) []ReplicaHealth {
	return NewCollector(stores...).Health()
}

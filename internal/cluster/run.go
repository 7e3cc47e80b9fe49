package cluster

import (
	"fmt"
	"math/bits"

	"semibfs/internal/bfs"
	"semibfs/internal/vtime"
)

// The 1D layout's side of the level loop (layout): the top-down frontier
// is owner-local, so a level needs no distribution step; the bottom-up
// scan needs the whole frontier bitmap on every machine, so every
// promotion into it is an allgather across all P machines.

func (c *Cluster) install(root int64) {
	k := c.owner(root)
	c.queues[k] = append(c.queues[k], root)
}

func (c *Cluster) level(dir bfs.Direction) (claimed, examined int64, err error) {
	if dir == bfs.TopDown {
		return c.topDownLevel()
	}
	claimed, examined = c.bottomUpLevel()
	return claimed, examined, nil
}

// bottomUpLevel scans each machine's unvisited vertices against the full
// frontier bitmap (replicated by the previous allgather). The backward
// adjacency stays in DRAM — the semi-external placement — so this
// direction cannot hit storage faults. Each vertex is scanned by exactly
// one machine (word ranges are disjoint) and claims the first frontier
// neighbor of its degree-sorted list, the single-node rule.
func (c *Cluster) bottomUpLevel() (claimed, examined int64) {
	cm := &c.cfg.Cost
	visW := c.visited.Words()
	for k, m := range c.machines {
		lo, hi := c.ownStart[k], c.ownStart[k+1]
		m.examined, m.claimed = 0, 0
		var t vtime.Duration
		wordLo := int(lo+63) / 64
		if k == 0 {
			wordLo = 0
		}
		wordHi := (int(hi) + 63) / 64
		for wi := wordLo; wi < wordHi; wi++ {
			t += cm.Stream(8)
			unvisited := ^visW[wi]
			base := int64(wi * 64)
			if base+64 > c.n {
				unvisited &= (1 << uint(c.n-base)) - 1
			}
			for unvisited != 0 {
				b := bits.TrailingZeros64(unvisited)
				unvisited &= unvisited - 1
				v := base + int64(b)
				t += cm.VertexOverhead
				// Straddling words: the word's scanner handles vertices
				// owned by the neighboring machine too, reading the true
				// owner's adjacency.
				mv := m
				if v < lo || v >= hi {
					mv = c.machines[c.owner(v)]
				}
				nbs := mv.td.Neighbors(v)
				var parent int64 = -1
				scanned := 0
				for _, nb := range nbs {
					scanned++
					if c.frontier.Test(int(nb)) {
						parent = nb
						break
					}
				}
				m.examined += int64(scanned)
				t += (cm.EdgeCompute + cm.BitmapProbe) * vtime.Duration(scanned)
				t += cm.Stream(scanned * 8)
				if parent >= 0 {
					c.tree[v] = parent
					c.visited.Set(int(v))
					c.next.Set(int(v))
					t += cm.LocalAccess + 2*cm.BitmapProbe
					m.claimed++
				}
			}
		}
		c.charge(m, t)
	}
	return c.tally()
}

// allgather charges every machine for receiving all fragments but its own
// and books the traffic to the bottom-up allgather bucket.
func (c *Cluster) allgather(frags [][]byte) {
	p := int64(len(c.machines))
	var total int64
	for _, frag := range frags {
		total += int64(len(frag))
		c.comm.BUAllgather += int64(len(frag)) * (p - 1)
	}
	for k, m := range c.machines {
		m.clock.Advance(c.cfg.Net.transfer(total - int64(len(frags[k]))))
	}
}

// extractQueues fills every machine's top-down queue from its owned range
// of a bitmap (local extraction, no communication).
func (c *Cluster) extractQueues(forEachSet func(lo, hi int, fn func(i int))) {
	for k, m := range c.machines {
		lo, hi := int(c.ownStart[k]), int(c.ownStart[k+1])
		q := c.queues[k][:0]
		forEachSet(lo, hi, func(i int) { q = append(q, int64(i)) })
		c.queues[k] = q
		c.charge(m, c.cfg.Cost.Stream((hi-lo)/8+len(q)*8))
	}
}

// promote installs the next frontier in dir's representation.
func (c *Cluster) promote(dir bfs.Direction) error {
	if dir == bfs.TopDown {
		// Each machine marks its claims visited and extracts its owned
		// range of the next bitmap into its frontier queue.
		c.extractQueues(func(lo, hi int, fn func(i int)) {
			c.next.ForEachSet(lo, hi, func(i int) {
				c.visited.Set(i)
				fn(i)
			})
		})
		c.frontier.Reset()
	} else {
		// Allgather: every machine broadcasts its wire-encoded fragment of
		// the next bitmap; the frontier everyone scans next level is the
		// decoded copy.
		frags := make([][]byte, len(c.machines))
		for k := range frags {
			frags[k] = appendBitmap(nil, c.next.Test, int(c.ownStart[k]), int(c.ownStart[k+1]), c.cfg.Compress)
		}
		c.allgather(frags)
		c.frontier.Reset()
		for k, frag := range frags {
			lo := int(c.ownStart[k])
			if _, _, err := decodeBitmap(frag, int(c.ownStart[k+1])-lo, func(i int) {
				c.frontier.Set(lo + i)
			}); err != nil {
				return err
			}
		}
	}
	c.next.Reset()
	c.barrier()
	return nil
}

// redirect switches the frontier representation at a direction change.
func (c *Cluster) redirect(from, to bfs.Direction) error {
	switch {
	case from == bfs.TopDown && to == bfs.BottomUp:
		// Queues -> global bitmap: each machine publishes its queue as a
		// wire-encoded sparse vertex list (an allgather).
		frags := make([][]byte, len(c.machines))
		for k, q := range c.queues {
			frags[k] = appendList(nil, q, c.cfg.Compress)
			c.charge(c.machines[k], c.cfg.Cost.Stream(len(q)*8))
		}
		c.allgather(frags)
		c.frontier.Reset()
		for k, m := range c.machines {
			vs, _, err := decodeList(frags[k], m.idsBuf[:0])
			if err != nil {
				return err
			}
			for _, v := range vs {
				c.frontier.Set(int(v))
			}
			m.idsBuf = vs[:0]
		}
	case from == bfs.BottomUp && to == bfs.TopDown:
		c.extractQueues(c.frontier.ForEachSet)
		c.frontier.Reset()
	default:
		return fmt.Errorf("cluster: bad conversion %v -> %v", from, to)
	}
	c.barrier()
	return nil
}

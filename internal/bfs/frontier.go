package bfs

import (
	"fmt"
	"math/bits"
	"slices"

	"semibfs/internal/vtime"
)

// promoteNext installs the level's output (per-worker queues after a
// top-down level, the next bitmap after a bottom-up level) as the frontier
// in the representation matching dir. Direction switches are handled
// afterwards by ConvertFrontier.
//
// Invariant maintained across levels: whenever the current direction is
// top-down, the per-node frontier bitmap replicas are all-clear.
func (h *Hybrid) promoteNext(dir Direction) error {
	if dir == TopDown {
		return h.gatherQueues()
	}
	return h.replicateNextBitmap()
}

// ConvertFrontier rewrites the current frontier from the representation of
// direction from into the representation of direction to, charging the
// workers for the conversion.
func (h *Hybrid) ConvertFrontier(from, to Direction) error {
	switch {
	case from == TopDown && to == BottomUp:
		return h.queueToReplicas()
	case from == BottomUp && to == TopDown:
		return h.replicasToQueue()
	default:
		return fmt.Errorf("bfs: bad frontier conversion %v -> %v", from, to)
	}
}

// gatherQueues concatenates the per-worker next queues into the frontier
// queue, makes the gathered claims final (Kernels.Finalize, charged with the
// copy), and sorts the frontier ascending. Sorting keeps the semi-external
// forward reads in adjacency-offset order — sequential, coalescible NVM runs
// for the prefetcher — and makes the frontier layout independent of which
// worker won each claim.
func (h *Hybrid) gatherQueues() error {
	if err := h.concat(h.k.Finalize); err != nil {
		return err
	}
	slices.Sort(h.FrontQ)
	if total := len(h.FrontQ); total > 0 {
		// Modeled as one parallel merge pass over the gathered IDs.
		per := h.Cfg.Cost.Stream(total * 16 / h.nWorkers)
		for _, c := range h.Clocks {
			c.Advance(per)
		}
	}
	return nil
}

// replicateNextBitmap copies the next bitmap into every NUMA node's
// frontier replica and clears it. This is the per-level frontier broadcast
// that buys the bottom-up kernel its purely node-local frontier probes.
func (h *Hybrid) replicateNextBitmap() error {
	words := h.NextBM.Words()
	nw := len(words)
	return h.Parallel(func(w int) error {
		lo, hi := stripe(nw, h.nWorkers, w)
		if lo >= hi {
			return nil
		}
		var t vtime.Duration
		for _, bm := range h.FrontBM {
			dst := bm.Words()
			copy(dst[lo:hi], words[lo:hi])
			t += h.Cfg.Cost.Stream((hi - lo) * 8 * 2)
		}
		for i := lo; i < hi; i++ {
			words[i] = 0
		}
		t += h.Cfg.Cost.Stream((hi - lo) * 8)
		h.Clocks[w].Advance(t)
		return nil
	})
}

// queueToReplicas sets the frontier queue's vertices in every node's
// frontier bitmap replica (top-down -> bottom-up switch).
func (h *Hybrid) queueToReplicas() error {
	return h.Parallel(func(w int) error {
		lo, hi := stripe(len(h.FrontQ), h.nWorkers, w)
		if lo >= hi {
			return nil
		}
		var t vtime.Duration
		t += h.Cfg.Cost.Stream((hi - lo) * 8)
		probes := vtime.Duration(len(h.FrontBM)) * h.Cfg.Cost.BitmapProbe
		for _, v := range h.FrontQ[lo:hi] {
			for _, bm := range h.FrontBM {
				bm.Set(int(v))
			}
			t += probes
		}
		h.Clocks[w].Advance(t)
		return nil
	})
}

// replicasToQueue extracts the frontier from the bitmap replicas into the
// frontier queue and clears all replicas (bottom-up -> top-down switch).
func (h *Hybrid) replicasToQueue() error {
	src := h.FrontBM[0].Words()
	nw := len(src)
	err := h.Parallel(func(w int) error {
		lo, hi := stripe(nw, h.nWorkers, w)
		q := h.NextQ[w][:0]
		var t vtime.Duration
		for i := lo; i < hi; i++ {
			t += h.Cfg.Cost.Stream(8)
			word := src[i]
			base := i * 64
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				q = append(q, int64(base+b))
				t += h.Cfg.Cost.QueueAppend
			}
		}
		h.NextQ[w] = q
		// Clear this stripe in every replica.
		for _, bm := range h.FrontBM {
			dst := bm.Words()
			for i := lo; i < hi; i++ {
				dst[i] = 0
			}
		}
		t += h.Cfg.Cost.Stream((hi - lo) * 8 * len(h.FrontBM))
		h.Clocks[w].Advance(t)
		return nil
	})
	if err != nil {
		return err
	}
	return h.gatherQueues()
}

// stripe splits n items into nWorkers nearly-equal contiguous ranges and
// returns worker w's half-open range.
func stripe(n, nWorkers, w int) (lo, hi int) {
	base, rem := n/nWorkers, n%nWorkers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram bucket geometry: values below histLinearMax land in unit-wide
// buckets; above that, each power-of-two octave splits into histSub
// log-spaced sub-buckets (3 significant bits — HDR-style), so relative
// bucket error is bounded by 1/8 across the whole non-negative int64 range.
const (
	histSubBits   = 3
	histSub       = 1 << histSubBits // sub-buckets per octave
	histLinearMax = histSub * 2      // values < 16 get exact unit buckets
	histOctaveLo  = histSubBits + 1  // first octave with sub-bucketing
	histOctaveHi  = 62               // floor(log2(max int64))

	// HistBuckets is the fixed bucket count; a fixed-size array keeps
	// Histogram a plain value type that merges with = / Add / Sub.
	HistBuckets = histLinearMax + (histOctaveHi-histOctaveLo+1)*histSub
)

// Histogram is a fixed-shape log-spaced histogram of non-negative int64
// samples (virtual-time durations in nanoseconds, typically). It is a pure
// value type with no pointers: copy it freely, merge two with Add, and
// subtract a baseline snapshot with Sub — the same snapshot/delta discipline
// the storage-stack counters use. The zero value is an empty histogram.
type Histogram struct {
	Count   int64
	Sum     int64
	Buckets [HistBuckets]int64
}

// histIndex maps a sample to its bucket. Negative samples clamp to 0.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histLinearMax {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= histOctaveLo
	sub := int(v>>(uint(o)-histSubBits)) & (histSub - 1)
	return histLinearMax + (o-histOctaveLo)*histSub + sub
}

// histBounds returns bucket i's inclusive lower bound and width.
func histBounds(i int) (lo, width int64) {
	if i < histLinearMax {
		return int64(i), 1
	}
	b := i - histLinearMax
	o := histOctaveLo + b/histSub
	sub := b % histSub
	width = int64(1) << (uint(o) - histSubBits)
	lo = int64(histSub+sub) * width
	return lo, width
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.Count++
	if v > 0 {
		h.Sum += v
	}
	h.Buckets[histIndex(v)]++
}

// Add returns the merge of h and o. Buckets are fixed-shape, so merging is
// exact: Quantile over a sum of histograms equals Quantile over the pooled
// samples (up to bucket resolution).
func (h Histogram) Add(o Histogram) Histogram {
	h.Merge(&o)
	return h
}

// Merge adds o's samples into h in place: Add without copying either
// histogram's buckets.
func (h *Histogram) Merge(o *Histogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
}

// Sub returns h minus the earlier snapshot o.
func (h Histogram) Sub(o Histogram) Histogram {
	h.Count -= o.Count
	h.Sum -= o.Sum
	for i := range h.Buckets {
		h.Buckets[i] -= o.Buckets[i]
	}
	return h
}

// Mean returns the exact mean of the recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded
// samples, interpolating linearly inside the winning bucket. Empty
// histograms report 0. Resolution is the bucket width: at most a 12.5%
// relative error for samples >= histLinearMax, exact below it.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample among Count samples, 1-based.
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, width := histBounds(i)
			frac := float64(rank-cum) / float64(c)
			return float64(lo) + frac*float64(width)
		}
		cum += c
	}
	// Unreachable unless counts were corrupted by a bad Sub; fall back to
	// the top of the highest non-empty bucket.
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.Buckets[i] != 0 {
			lo, width := histBounds(i)
			return float64(lo + width)
		}
	}
	return 0
}

// P50, P95 and P99 are the serving-layer quantile shorthands.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// String renders the count, mean and tail quantiles in one line, with
// nanosecond samples shown as seconds.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%.3gs p50=%.3gs p95=%.3gs p99=%.3gs",
		h.Count, h.Mean()/1e9, h.P50()/1e9, h.P95()/1e9, h.P99()/1e9)
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"semibfs/internal/edgelist"
)

// rng is the harness's own splitmix64 stream: every generated input (root
// samples, update streams, arrival schedules) derives from the run seed
// through it, so inputs do not move when the program's internal/rng does.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// exp returns an exponential variate with mean 1 (Poisson inter-arrivals).
func (r *rng) exp() float64 {
	u := float64(r.next()>>11) / (1 << 53)
	return -math.Log(1 - u)
}

// sampleRoots draws count distinct search keys, in seeded order, from a
// pool of 5/4 x count keys that belongs to the graph (it is drawn with the
// graph's seed from the largest connected component).
//
// The largest component, because Graph500 only discards isolated vertices
// but a key in a two-vertex component measures nothing and, through the
// harmonic mean, would decide sim_teps_hmean on the seeds that draw one.
//
// A pool, because per-key BFS time is bimodal (one level more or less), so
// statistics over independent samples of 256 keys sit 6-15% apart; that is
// sampling noise, not the program. With four fifths of the keys shared
// between any two seeds it shrinks by more than half, while every seed
// still runs a different key set in a different order.
func sampleRoots(list *edgelist.List, count int, ctx *runCtx) ([]int64, error) {
	comp := componentSizes(list)
	var giant int64
	for _, c := range comp {
		if c > giant {
			giant = c
		}
	}
	r := newRNG(ctx.graphSeed, 0x526f6f7473)
	want := count + count/4
	seen := make(map[int64]bool, want)
	pool := make([]int64, 0, want)
	for tries := 0; len(pool) < want; tries++ {
		if tries > 1000*want+1000 {
			return nil, fmt.Errorf("bench: found only %d of %d roots in the largest component (%d vertices)", len(pool), want, giant)
		}
		v := r.intn(list.NumVertices)
		if seen[v] || comp[v] != giant {
			continue
		}
		seen[v] = true
		pool = append(pool, v)
	}
	// Seeded Fisher-Yates: the first count entries are the run's keys.
	r = newRNG(ctx.seed, 0x6b657973)
	for i := 0; i < count; i++ {
		j := i + int(r.intn(int64(len(pool)-i)))
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:count], nil
}

// componentSizes returns, per vertex, the size of its connected component
// (union-find over the edge list).
func componentSizes(list *edgelist.List) []int64 {
	parent := make([]int64, list.NumVertices)
	for i := range parent {
		parent[i] = int64(i)
	}
	find := func(v int64) int64 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, e := range list.Edges {
		if a, b := find(e.U), find(e.V); a != b {
			parent[a] = b
		}
	}
	size := make([]int64, len(parent))
	for v := range parent {
		size[find(int64(v))]++
	}
	out := make([]int64, len(parent))
	for v := range parent {
		out[v] = size[find(int64(v))]
	}
	return out
}

// quantile returns the q-quantile of xs by the nearest-rank rule (an actual
// sample, so a p99 over 1,200 values has 12 samples at or beyond it).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailBeyond is how many samples the tail statistic leaves beyond itself.
const tailBeyond = 10

// tail returns the highest order statistic of xs that still has tailBeyond
// samples beyond it (the 11th largest): the highest percentile the sample
// count supports — p99 over 1,200 queries, p96 over 256 ops, p83 over 64.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the relative range of xs: (max - min) / median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return ratio(hi-lo, median(xs))
}

func harmonicMean(xs []float64) float64 {
	var rsum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			rsum += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / rsum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opMeter times ops on the host clock and charges them their own share of
// the allocator counters: ReadMemStats brackets each op, so harness work
// between ops (validation, bookkeeping) is never billed to the program.
type opMeter struct {
	// hostMs holds one host-time sample per timed call, in ms per op;
	// opsPer how many ops that call covered.
	hostMs []float64
	opsPer []int
	// ops is the number of ops the timed calls covered.
	ops     int
	totalNs int64
	mallocs uint64
	bytes   uint64
	m0, m1  runtime.MemStats
	t0      time.Time
}

func (m *opMeter) start() {
	runtime.ReadMemStats(&m.m0)
	m.t0 = time.Now()
}

// stop ends the op begun by start and returns its host duration.
func (m *opMeter) stop() time.Duration { return m.stopN(1) }

// stopN ends a timed call that covered n ops the harness cannot time one
// by one (a whole PageRank run, a whole arrival trace): it contributes one
// sample, the call's mean host time per op.
func (m *opMeter) stopN(n int) time.Duration {
	d := time.Since(m.t0)
	runtime.ReadMemStats(&m.m1)
	if n < 1 {
		n = 1
	}
	m.hostMs = append(m.hostMs, float64(d.Nanoseconds())/1e6/float64(n))
	m.opsPer = append(m.opsPer, n)
	m.ops += n
	m.totalNs += d.Nanoseconds()
	m.mallocs += m.m1.Mallocs - m.m0.Mallocs
	m.bytes += m.m1.TotalAlloc - m.m0.TotalAlloc
	return d
}

func (m *opMeter) totalSeconds() float64 { return float64(m.totalNs) / 1e9 }

// peakRSSMiB reads this process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hashTree folds a parent array into an FNV-1a digest; two runs agree on a
// tree exactly when they agree on its hash (up to collisions).
func hashTree(tree []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range tree {
		h ^= uint64(p)
		h *= 1099511628211
	}
	return h
}

// traversedEdges is the Graph500 TEPS numerator: input edges inside the
// traversed component, as half the degree sum of the visited vertices.
func traversedEdges(tree []int64, deg []int64) int64 {
	var sum int64
	for v, p := range tree {
		if p != -1 {
			sum += deg[v]
		}
	}
	return sum / 2
}

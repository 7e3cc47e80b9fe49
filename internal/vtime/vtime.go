// Package vtime implements the virtual-time engine that lets semibfs
// emulate the paper's 48-core, 4-socket NUMA machine and its NVM devices
// on an arbitrary host.
//
// The BFS kernels perform their graph work for real (the resulting BFS
// tree is validated against the edge list), but time is *modeled*: every
// simulated worker owns a Clock that is advanced by a calibrated cost for
// each unit of work (instruction batch, DRAM access, NVM request). At each
// BFS level all workers synchronize at a barrier, which — as on real
// hardware — costs the maximum of the participants' clocks plus a fixed
// barrier overhead.
//
// Virtual time is expressed in integer nanoseconds, which keeps the engine
// deterministic: a run with the same seed and parameters produces the same
// TEPS figure on any host.
package vtime

import "time"

// Duration is a span of virtual time in nanoseconds. It converts freely to
// time.Duration for reporting.
type Duration int64

// Common virtual-time units, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// ToTime converts d to a standard time.Duration.
func (d Duration) ToTime() time.Duration { return time.Duration(d) }

// Seconds returns d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns d as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats d using time.Duration's notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Clock is one simulated worker's private notion of "now". It is not safe
// for concurrent use; each simulated worker owns exactly one Clock and
// advances it from its own goroutine.
type Clock struct {
	now Duration
}

// NewClock returns a clock set to start.
func NewClock(start Duration) *Clock { return &Clock{now: start} }

// Now returns the clock's current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored so
// that cost-model arithmetic can never move time backwards.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to at least t (used when a device
// completion lands in the worker's future). It never moves backwards.
func (c *Clock) AdvanceTo(t Duration) {
	if t > c.now {
		c.now = t
	}
}

// Barrier models a synchronization point among a fixed set of simulated
// workers: after Sync, every participating clock reads
// max(all clocks) + overhead.
type Barrier struct {
	overhead Duration
}

// NewBarrier returns a barrier with the given per-synchronization overhead.
func NewBarrier(overhead Duration) *Barrier { return &Barrier{overhead: overhead} }

// Sync aligns all clocks to the maximum participant time plus the barrier
// overhead and returns that time. The caller must ensure the goroutines
// owning the clocks are quiescent (it is invoked between level phases,
// after the real sync.WaitGroup has drained).
func (b *Barrier) Sync(clocks []*Clock) Duration {
	var max Duration
	for _, c := range clocks {
		if c.now > max {
			max = c.now
		}
	}
	max += b.overhead
	for _, c := range clocks {
		c.now = max
	}
	return max
}

// MaxOf returns the maximum current time across clocks without modifying
// them. Useful for reporting mid-phase progress.
func MaxOf(clocks []*Clock) Duration {
	var max Duration
	for _, c := range clocks {
		if c.now > max {
			max = c.now
		}
	}
	return max
}

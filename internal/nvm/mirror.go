package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"semibfs/internal/stats"
	"semibfs/internal/vtime"
)

// This file implements the mirrored NVM device array: the FlashGraph-style
// answer to single-device fragility. A MirrorStore replicates one logical
// store across N replica stacks (each typically base media + fault
// injection + checksum verification, each charging its own Device), serves
// every read from the least-loaded live replica, fails over transparently
// when a replica errors mid-read, and self-heals through a background
// scrubber that walks blocks at a fixed virtual-time rate, re-verifies
// them through each replica's own checksum layer, and rewrites corrupt or
// stale blocks from the first verified copy.
//
// Per-replica health follows healthy -> suspect -> dead -> rebuilt, driven
// by consecutive-error thresholds rather than a single failure; only when
// every replica is dead does the mirror return ErrDeviceDead, which is
// what lets the BFS engine's degraded mode remain the last line of defense.

// Default thresholds of the replica state machine and scrubber pacing.
const (
	// DefaultSuspectAfter is the consecutive-error count that moves a
	// replica healthy -> suspect (deprioritized for reads).
	DefaultSuspectAfter = 2
	// DefaultDeadAfter is the consecutive-error count that moves a replica
	// to dead. A permanent ErrDeviceDead kills it immediately regardless.
	DefaultDeadAfter = 8
	// DefaultMaxScrubPerRead caps the scrub catch-up steps one foreground
	// read may trigger, bounding the virtual-time debt a long idle period
	// can impose on the read that ends it.
	DefaultMaxScrubPerRead = 4
)

// ReplicaState is one replica's position in the health state machine.
type ReplicaState int

const (
	// ReplicaHealthy replicas serve reads with first priority.
	ReplicaHealthy ReplicaState = iota
	// ReplicaSuspect replicas crossed the consecutive-error threshold and
	// serve reads only when every healthy replica has failed; a successful
	// read (foreground or scrub) returns them to healthy.
	ReplicaSuspect
	// ReplicaDead replicas are skipped entirely until rebuilt.
	ReplicaDead
	// ReplicaRebuilt replicas were dead, then repopulated by Rebuild; they
	// serve with healthy priority, the distinct state recording that a
	// rebuild happened.
	ReplicaRebuilt
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaHealthy:
		return "healthy"
	case ReplicaSuspect:
		return "suspect"
	case ReplicaDead:
		return "dead"
	case ReplicaRebuilt:
		return "rebuilt"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int(s))
	}
}

// severity orders states for MergeReplicaHealth (worst wins).
func (s ReplicaState) severity() int {
	switch s {
	case ReplicaDead:
		return 3
	case ReplicaSuspect:
		return 2
	case ReplicaRebuilt:
		return 1
	default:
		return 0
	}
}

// MirrorConfig parameterizes a MirrorStore. The zero value enables
// failover with the default thresholds and no background scrubbing.
type MirrorConfig struct {
	// SuspectAfter is the consecutive failed reads that move a replica
	// healthy -> suspect (<= 0 selects DefaultSuspectAfter).
	SuspectAfter int
	// DeadAfter is the consecutive failed reads that move a replica to
	// dead (<= 0 selects DefaultDeadAfter).
	DeadAfter int
	// ScrubInterval is the virtual time between background scrub steps,
	// one block per step (0 disables background scrubbing).
	ScrubInterval vtime.Duration
	// MaxScrubPerRead caps catch-up scrub steps per foreground read
	// (<= 0 selects DefaultMaxScrubPerRead).
	MaxScrubPerRead int
}

func (c MirrorConfig) suspectAfter() int {
	if c.SuspectAfter <= 0 {
		return DefaultSuspectAfter
	}
	return c.SuspectAfter
}

func (c MirrorConfig) deadAfter() int {
	if c.DeadAfter <= 0 {
		return DefaultDeadAfter
	}
	return c.DeadAfter
}

// MirrorStats is a snapshot of one mirror's failover and scrub activity.
type MirrorStats struct {
	// Reads counts foreground reads served by the mirror (cache hits
	// never reach it).
	Reads int64
	// Failovers counts read attempts redirected to another replica after
	// a failure.
	Failovers int64
	// AllDeadReads counts reads that found every replica dead (each
	// returns ErrDeviceDead, the degraded-mode trigger).
	AllDeadReads int64
	// ScrubbedBlocks / ScrubErrors / RepairedBlocks count the scrubber's
	// verified blocks, failed scrub accesses, and rewritten blocks.
	ScrubbedBlocks int64
	ScrubErrors    int64
	RepairedBlocks int64
	// RebuiltBlocks counts blocks copied by explicit Rebuild calls.
	RebuiltBlocks int64
	// RepairTime is the virtual time from scrub-step start to completed
	// rewrite, summed over repaired blocks (mean repair latency =
	// RepairTime / RepairedBlocks).
	RepairTime vtime.Duration
	// RepairHist is the per-block repair-latency distribution behind
	// RepairTime's sum: one sample per repaired block, in virtual
	// nanoseconds, with mergeable log-spaced buckets (p50/p95/p99).
	RepairHist stats.Histogram `json:"-"`
}

// ReplicaHealth is one replica's externally visible health snapshot.
type ReplicaHealth struct {
	Name  string
	State ReplicaState
	// Reads / Errors count accesses (foreground + scrub) and failures;
	// Consecutive is the current consecutive-error run driving the state
	// machine.
	Reads       int64
	Errors      int64
	Consecutive int
	// ScrubbedBlocks / RepairedBlocks count scrub verifications of this
	// replica and blocks rewritten onto it.
	ScrubbedBlocks int64
	RepairedBlocks int64
	// RepairHist is the distribution of this replica's per-block repair
	// latencies (virtual nanoseconds).
	RepairHist stats.Histogram `json:"-"`
}

// MergeReplicaHealth combines per-mirror health rows index-wise: replica i
// of every mirrored store lives on simulated device i, so summing across
// mirrors yields per-device health. States merge worst-wins; merged rows
// are named "r<i>".
func MergeReplicaHealth(sets ...[]ReplicaHealth) []ReplicaHealth {
	var out []ReplicaHealth
	for _, set := range sets {
		for i := range set {
			for len(out) <= i {
				out = append(out, ReplicaHealth{Name: fmt.Sprintf("r%d", len(out))})
			}
			out[i].add(&set[i])
		}
	}
	return out
}

// add merges h into r: the worse state wins, counts and repair latencies
// sum. The one merge rule of MergeReplicaHealth and Collector.Health.
func (r *ReplicaHealth) add(h *ReplicaHealth) {
	if h.State.severity() > r.State.severity() {
		r.State = h.State
	}
	r.Reads += h.Reads
	r.Errors += h.Errors
	r.Consecutive += h.Consecutive
	r.ScrubbedBlocks += h.ScrubbedBlocks
	r.RepairedBlocks += h.RepairedBlocks
	r.RepairHist.Merge(&h.RepairHist)
}

// ReplicaIndex parses the trailing "-r<i>" suffix the mirror layer appends
// to replica store names, or -1 when name carries none. Store factories
// use it to route each replica onto its own simulated device.
func ReplicaIndex(name string) int {
	i := strings.LastIndex(name, "-r")
	if i < 0 || i+2 >= len(name) {
		return -1
	}
	n := 0
	for _, c := range name[i+2:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// NewReplicaDevices returns n independent devices of profile p (at least
// one), one per mirror replica, and the route a store factory picks a
// store's device by: a replica store ("...-r<i>", ReplicaIndex) goes to
// device i mod n, any other store to device 0. A mirrored array spans
// distinct simulated hardware with separate queues and fault streams, not
// n copies on one device. binWidth is NewDevice's.
func NewReplicaDevices(p Profile, n int, binWidth vtime.Duration) ([]*Device, func(name string) *Device) {
	devs := make([]*Device, max(n, 1))
	for i := range devs {
		devs[i] = NewDevice(p, binWidth)
	}
	return devs, func(name string) *Device {
		if i := ReplicaIndex(name); i >= 0 {
			return devs[i%len(devs)]
		}
		return devs[0]
	}
}

// mirrorReplica is one replica stack and its health, kept in the shape
// Health reports it in.
type mirrorReplica struct {
	store Storage
	ReplicaHealth
}

// MirrorStore replicates one logical store across N replica stacks. It
// implements Storage, so it slots under the retry policy and (being the
// fill path) outside the page cache: cached hits never reach replica
// selection, and the retry layer above re-drives selection after a
// retryable failure.
type MirrorStore struct {
	name  string
	cfg   MirrorConfig
	block int64

	reps []*mirrorReplica
	size int64

	stats MirrorStats
	// Scrub cursor: scrubNext is the fixed virtual time of the next scrub
	// step, scrubBlock the block it will verify. Steps run at exactly
	// {k * ScrubInterval} no matter which worker's read triggers the
	// catch-up, so device charges stay deterministic.
	scrubNext  vtime.Duration
	scrubBlock int64

	scrubBuf []byte
	goodBuf  []byte
}

// NewMirror mirrors the given replica stacks under one logical store
// named name. Replicas are reported as "<name>-r<i>" (matching the names
// NewArrayStore creates them under). block is the scrub/repair granularity
// (<= 0 selects DefaultChunkSize); it should match the replicas' checksum
// block so one scrub read is one verification.
func NewMirror(name string, replicas []Storage, block int, cfg MirrorConfig) (*MirrorStore, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("nvm: mirror %s: no replicas", name)
	}
	if block <= 0 {
		block = DefaultChunkSize
	}
	m := &MirrorStore{
		name:      name,
		cfg:       cfg,
		block:     int64(block),
		scrubNext: cfg.ScrubInterval,
	}
	for i, st := range replicas {
		m.reps = append(m.reps, &mirrorReplica{
			store:         st,
			ReplicaHealth: ReplicaHealth{Name: fmt.Sprintf("%s-r%d", name, i)},
		})
		if sz := st.Size(); sz > m.size {
			m.size = sz
		}
	}
	return m, nil
}

// Name returns the mirror's logical store name.
func (m *MirrorStore) Name() string { return m.name }

// Replicas returns the replica count (live or not).
func (m *MirrorStore) Replicas() int { return len(m.reps) }

// Size returns the logical store size in bytes.
func (m *MirrorStore) Size() int64 { return m.size }

// PhysicalBytes returns the bytes occupied across all replicas — the real
// NVM footprint of the mirrored store (R times the logical size).
func (m *MirrorStore) PhysicalBytes() int64 {
	var b int64
	for _, rep := range m.reps {
		b += rep.store.Size()
	}
	return b
}

// Device returns the first live replica's device (the retry layer charges
// its backoff accounting there), or the first replica's when all are dead.
func (m *MirrorStore) Device() *Device {
	for _, rep := range m.reps {
		if rep.State != ReplicaDead {
			return rep.store.Device()
		}
	}
	return m.reps[0].store.Device()
}

// Close closes every replica, returning the first error.
func (m *MirrorStore) Close() error {
	var first error
	for _, rep := range m.reps {
		if err := rep.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MirrorStats returns the mirror's cumulative failover/scrub counters.
func (m *MirrorStore) MirrorStats() MirrorStats { return m.stats }

// Kind implements Layer.
func (m *MirrorStore) Kind() string { return "mirror" }

// Unwrap implements Layer: the mirror fans out rather than wrapping one
// layer; walkers descend through Inners.
func (m *MirrorStore) Unwrap() Storage { return nil }

// Inners implements FanOut, exposing every replica stack.
func (m *MirrorStore) Inners() []Storage {
	out := make([]Storage, len(m.reps))
	for i, rep := range m.reps {
		out[i] = rep.store
	}
	return out
}

// AppendCounters implements Layer.
func (m *MirrorStore) AppendCounters(dst []Counter) []Counter {
	st := &m.stats
	return append(dst,
		Counter{Name: "reads", Value: st.Reads},
		Counter{Name: "failovers", Value: st.Failovers},
		Counter{Name: "all_dead_reads", Value: st.AllDeadReads},
		Counter{Name: "scrubbed_blocks", Value: st.ScrubbedBlocks},
		Counter{Name: "scrub_errors", Value: st.ScrubErrors},
		Counter{Name: "repaired_blocks", Value: st.RepairedBlocks},
		Counter{Name: "rebuilt_blocks", Value: st.RebuiltBlocks},
		Counter{Name: "repair_ns", Value: int64(st.RepairTime)},
		// Quantiles of the per-block repair-latency distribution. Gauges:
		// a snapshot delta cannot subtract quantiles, so a delta keeps the
		// cumulative value rather than inventing a meaningless difference.
		Counter{Name: "repair_p50_ns", Value: int64(st.RepairHist.P50()), Gauge: true},
		Counter{Name: "repair_p99_ns", Value: int64(st.RepairHist.P99()), Gauge: true},
		Counter{Name: "replicas", Value: int64(len(m.reps)), Gauge: true},
	)
}

// Health snapshots every replica's health state.
func (m *MirrorStore) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, len(m.reps))
	for i, rep := range m.reps {
		out[i] = rep.ReplicaHealth
	}
	return out
}

// note advances one replica's health state machine after an access.
func (m *MirrorStore) note(rep *mirrorReplica, err error) {
	rep.Reads++
	if err == nil {
		rep.Consecutive = 0
		if rep.State == ReplicaSuspect {
			rep.State = ReplicaHealthy
		}
		return
	}
	rep.Errors++
	rep.Consecutive++
	switch {
	case errors.Is(err, ErrDeviceDead):
		rep.State = ReplicaDead
	case rep.Consecutive >= m.cfg.deadAfter():
		rep.State = ReplicaDead
	case rep.Consecutive >= m.cfg.suspectAfter() &&
		(rep.State == ReplicaHealthy || rep.State == ReplicaRebuilt):
		rep.State = ReplicaSuspect
	}
}

// pick selects the read replica: healthy/rebuilt before suspect, then the
// one whose device has the earliest free channel at the caller's current
// virtual time (least-loaded), ties broken by index. Returns nil when
// every untried replica is dead.
func (m *MirrorStore) pick(clock *vtime.Clock, tried uint64) (*mirrorReplica, int) {
	var now vtime.Duration
	if clock != nil {
		now = clock.Now()
	}
	best := -1
	var bestLoad vtime.Duration
	bestSuspect := false
	for i, rep := range m.reps {
		if i < 64 && tried&(1<<uint(i)) != 0 {
			continue
		}
		if rep.State == ReplicaDead {
			continue
		}
		// The replica's next request would start at max(now, earliest
		// free channel): queueing past "now" is the load signal.
		load := now
		if dev := rep.store.Device(); dev != nil {
			if ef := dev.EarliestFree(); ef > load {
				load = ef
			}
		}
		suspect := rep.State == ReplicaSuspect
		better := best == -1 ||
			(!suspect && bestSuspect) ||
			(suspect == bestSuspect && load < bestLoad)
		if better {
			best, bestLoad, bestSuspect = i, load, suspect
		}
	}
	if best < 0 {
		return nil, -1
	}
	return m.reps[best], best
}

// ReadAt implements Storage with transparent failover: the selected
// replica's failure is recorded in its health state and the read is
// reissued on the next-best replica. Only when every replica has failed
// does an error surface — and only when every replica is *dead* does it
// wrap ErrDeviceDead, so the engine's degraded mode engages exactly when
// no replica can ever serve again.
func (m *MirrorStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	m.stats.Reads++
	var lastErr error
	var tried uint64
	attempt := 0
	for {
		rep, idx := m.pick(clock, tried)
		if rep == nil {
			break
		}
		if idx < 64 {
			tried |= 1 << uint(idx)
		}
		if attempt > 0 {
			m.stats.Failovers++
		}
		attempt++
		err := rep.store.ReadAt(clock, p, off)
		m.note(rep, err)
		if err == nil {
			m.maybeScrub(clock)
			return nil
		}
		lastErr = &BlockError{Store: rep.Name, Block: off / m.block, Off: off,
			Err: fmt.Errorf("nvm: mirror %s failover: %w", m.name, err)}
	}
	if lastErr != nil {
		// Every live replica was tried and failed. If the failures were
		// retryable, the retry policy above re-enters and re-selects.
		return lastErr
	}
	// No live replica at all: the array is gone.
	m.stats.AllDeadReads++
	var at vtime.Duration
	if clock != nil {
		at = clock.Now()
	}
	return &DeadError{Store: m.name, At: at}
}

// WriteAt implements Storage: the write lands on every live replica (dead
// replicas miss it and become stale; Rebuild or the scrubber restores
// them). The first replica failure aborts the write. Scrub steps run only
// from ReadAt, so none can see the replicas between one write's replica
// writes.
func (m *MirrorStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	live := false
	for _, rep := range m.reps {
		if rep.State == ReplicaDead {
			continue
		}
		if !live {
			live = true
			m.size = max(m.size, off+int64(len(p)))
		}
		if err := rep.store.WriteAt(clock, p, off); err != nil {
			return &BlockError{Store: rep.Name, Block: off / m.block, Off: off,
				Err: fmt.Errorf("nvm: mirror %s write: %w", m.name, err)}
		}
	}
	if !live {
		var at vtime.Duration
		if clock != nil {
			at = clock.Now()
		}
		return &DeadError{Store: m.name, At: at}
	}
	return nil
}

// maybeScrub runs the scrub steps whose scheduled virtual times have
// passed, at most MaxScrubPerRead of them. Each step runs on a scratch
// clock pinned to its *scheduled* time, so the scrubber's device traffic
// arrives at the same deterministic instants no matter which worker's
// read triggered the catch-up.
func (m *MirrorStore) maybeScrub(clock *vtime.Clock) {
	if clock == nil || m.cfg.ScrubInterval <= 0 {
		return
	}
	now := clock.Now()
	if m.size == 0 {
		for m.scrubNext <= now {
			m.scrubNext += m.cfg.ScrubInterval
		}
		return
	}
	maxSteps := m.cfg.MaxScrubPerRead
	if maxSteps <= 0 {
		maxSteps = DefaultMaxScrubPerRead
	}
	nb := (m.size + m.block - 1) / m.block
	for steps := 0; steps < maxSteps && m.scrubNext <= now; steps++ {
		m.scrubStep(vtime.NewClock(m.scrubNext), m.scrubBlock)
		m.scrubBlock = (m.scrubBlock + 1) % nb
		m.scrubNext += m.cfg.ScrubInterval
	}
}

// ScrubPass verifies (and repairs) every block once, charging device time
// to the caller's clock. The background scrubber performs the same steps
// one block at a time, paced by ScrubInterval.
func (m *MirrorStore) ScrubPass(clock *vtime.Clock) {
	if m.size == 0 {
		return
	}
	nb := (m.size + m.block - 1) / m.block
	for b := int64(0); b < nb; b++ {
		m.scrubStep(clock, b)
	}
}

// scrubStep verifies one block on every live replica. A read that
// fails (its checksum layer reporting corruption, or any other error)
// marks the replica for repair; a read that succeeds but diverges from
// the first verified copy is stale and is repaired too. Repairs rewrite
// the block from the first verified copy through the replica's full
// stack, so its checksums are refreshed along with the data.
func (m *MirrorStore) scrubStep(sc *vtime.Clock, b int64) {
	lo := b * m.block
	if lo >= m.size {
		return
	}
	hi := lo + m.block
	if hi > m.size {
		hi = m.size
	}
	n := hi - lo
	if int64(cap(m.scrubBuf)) < n {
		m.scrubBuf = make([]byte, n)
	}
	if int64(cap(m.goodBuf)) < n {
		m.goodBuf = make([]byte, n)
	}
	start := sc.Now()
	m.stats.ScrubbedBlocks++
	var good []byte
	var bad []*mirrorReplica
	for _, rep := range m.reps {
		if rep.State == ReplicaDead {
			continue
		}
		rep.ScrubbedBlocks++
		err := rep.store.ReadAt(sc, m.scrubBuf[:n], lo)
		m.note(rep, err)
		if err != nil {
			m.stats.ScrubErrors++
			if rep.State != ReplicaDead {
				bad = append(bad, rep)
			}
			continue
		}
		if good == nil {
			good = m.goodBuf[:n]
			copy(good, m.scrubBuf[:n])
		} else if !bytes.Equal(good, m.scrubBuf[:n]) {
			// Verified but diverging: a stale copy (e.g. a revived
			// replica that missed writes). The first verified replica
			// is authoritative.
			bad = append(bad, rep)
		}
	}
	if good == nil {
		return
	}
	for _, rep := range bad {
		if err := rep.store.WriteAt(sc, good, lo); err != nil {
			m.stats.ScrubErrors++
			continue
		}
		rep.RepairedBlocks++
		m.stats.RepairedBlocks++
		m.stats.RepairTime += sc.Now() - start
		rep.RepairHist.Observe(int64(sc.Now() - start))
		m.stats.RepairHist.Observe(int64(sc.Now() - start))
	}
}

// Rebuild repopulates replica i from the first healthy (or rebuilt)
// replica, block by block, charging device time to clock — the "replaced
// the failed drive" operation. The caller is responsible for reviving the
// underlying media first (e.g. faults.Store.Revive); Rebuild then copies
// the data and returns the replica to service in the rebuilt state.
func (m *MirrorStore) Rebuild(clock *vtime.Clock, i int) error {
	if i < 0 || i >= len(m.reps) {
		return fmt.Errorf("nvm: mirror %s: rebuild replica %d of %d", m.name, i, len(m.reps))
	}
	var src *mirrorReplica
	for j, rep := range m.reps {
		if j != i && (rep.State == ReplicaHealthy || rep.State == ReplicaRebuilt) {
			src = rep
			break
		}
	}
	if src == nil {
		return fmt.Errorf("nvm: mirror %s: rebuild replica %d: no healthy source: %w",
			m.name, i, ErrDeviceDead)
	}
	dst := m.reps[i]
	if int64(cap(m.scrubBuf)) < m.block {
		m.scrubBuf = make([]byte, m.block)
	}
	for lo := int64(0); lo < m.size; lo += m.block {
		hi := lo + m.block
		if hi > m.size {
			hi = m.size
		}
		buf := m.scrubBuf[:hi-lo]
		if err := src.store.ReadAt(clock, buf, lo); err != nil {
			return fmt.Errorf("nvm: mirror %s: replica %s: block %d @%d: rebuild read: %w",
				m.name, src.Name, lo/m.block, lo, err)
		}
		if err := dst.store.WriteAt(clock, buf, lo); err != nil {
			return fmt.Errorf("nvm: mirror %s: replica %s: block %d @%d: rebuild write: %w",
				m.name, dst.Name, lo/m.block, lo, err)
		}
		m.stats.RebuiltBlocks++
	}
	dst.State = ReplicaRebuilt
	dst.Consecutive = 0
	return nil
}

// NewArrayStore creates replicas stores via mk (each of at most chunk-byte
// requests), one per simulated device, named "<name>-r<i>" so the factory
// can route each onto its device, and mirrors them. replicas < 1 is
// treated as 1. On factory error, already-created replicas are closed.
func NewArrayStore(name string, replicas, chunk int, mk func(name string, chunk int) (Storage, error), cfg MirrorConfig) (*MirrorStore, error) {
	if replicas < 1 {
		replicas = 1
	}
	stores := make([]Storage, 0, replicas)
	fail := func(err error) (*MirrorStore, error) {
		for _, st := range stores {
			st.Close()
		}
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		st, err := mk(fmt.Sprintf("%s-r%d", name, i), chunk)
		if err != nil {
			return fail(err)
		}
		stores = append(stores, st)
	}
	m, err := NewMirror(name, stores, chunk, cfg)
	if err != nil {
		return fail(err)
	}
	return m, nil
}

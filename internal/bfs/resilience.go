package bfs

import (
	"math/bits"

	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// DegradedEvent records one mid-run degradation: a level whose kernel
// failed on NVM and was re-run on the DRAM-resident direction, which the
// run then stays pinned to.
type DegradedEvent struct {
	// Level is the BFS level whose kernel failed.
	Level int
	// From is the direction that failed; To is the DRAM-resident
	// direction the controller pinned to.
	From, To Direction
	// Cause is the failing error's message.
	Cause string
}

// Resilience summarizes one run's fault handling: the retries and
// virtual-time backoff absorbed by the semi-external read path, and any
// degradations the controller performed.
type Resilience struct {
	// Retries / ReadErrors count reissued reads and failed attempts.
	Retries    int64
	ReadErrors int64
	// BackoffTime is the virtual time spent backing off before retries.
	BackoffTime vtime.Duration
	// Failovers counts mirror reads redirected to another replica after a
	// replica failure (zero without a device array).
	Failovers int64
	// ScrubbedBlocks / RepairedBlocks count the background scrubber's
	// verified and rewritten blocks during the run.
	ScrubbedBlocks int64
	RepairedBlocks int64
	// RepairTime is the virtual time spent repairing corrupt or stale
	// blocks (mean repair latency = RepairTime / RepairedBlocks).
	RepairTime vtime.Duration
	// Devices is the per-device health at the end of the run, merged
	// across the mirrored stores (nil without a device array).
	Devices []nvm.ReplicaHealth
	// Degraded lists the levels that had to switch direction after a
	// device failure (empty for a healthy run).
	Degraded []DegradedEvent
}

// DegradedLevels returns the number of degradation events.
func (r *Resilience) DegradedLevels() int { return len(r.Degraded) }

// DeadDevices returns how many devices finished the run dead.
func (r *Resilience) DeadDevices() int {
	n := 0
	for _, d := range r.Devices {
		if d.State == nvm.ReplicaDead {
			n++
		}
	}
	return n
}

// fromLayers fills the legacy Resilience summary counters as views over the
// generic per-layer deltas.
func (r *Resilience) fromLayers(layers nvm.StackStats) {
	r.Retries = layers.Get("retry", "retries")
	r.ReadErrors = layers.Get("retry", "read_errors")
	r.BackoffTime = vtime.Duration(layers.Get("retry", "backoff_ns"))
	r.Failovers = layers.Get("mirror", "failovers")
	r.ScrubbedBlocks = layers.Get("mirror", "scrubbed_blocks")
	r.RepairedBlocks = layers.Get("mirror", "repaired_blocks")
	r.RepairTime = vtime.Duration(layers.Get("mirror", "repair_ns"))
}

// rescueTarget decides whether a failed level can be rescued by switching
// to the other direction: only in hybrid mode (a forced single-direction
// mode is a contract, not a preference), only once per run, and only when
// the target direction's graph is fully DRAM-resident — the paper's §V-C
// placement keeps the backward graph in DRAM precisely so the bottom-up
// direction survives a forward-device failure.
func (t *Team) rescueTarget(from Direction) (Direction, bool) {
	if t.Cfg.Mode != ModeHybrid || t.pinned {
		return 0, false
	}
	// An unknown backward placement counts as NVM, so the engine never
	// degrades into a direction it cannot prove is DRAM-resident.
	if b, known := t.Bwd.(BackwardNVM); from == TopDown && known && !b.OnNVM() {
		return BottomUp, true
	}
	if from == BottomUp && !t.fwd.OnNVM() {
		return TopDown, true
	}
	return 0, false
}

// enterDegraded rescues a partially-executed level so it can be re-run in
// direction to. Claims the failed kernel of a monotone algorithm already
// made are valid (each claimed parent is in the current frontier) and
// their state is already set — so they are preserved by seeding them into
// the level's output representation, and the re-run kernel skips them and
// claims the remainder. A non-monotone algorithm's partial claims are
// dropped from the frontier accounting instead (see Kernels.Monotone). The
// current frontier is converted to the representation the new direction
// expects. Returns the number of seeded (pre-degradation) claims.
func (h *Hybrid) enterDegraded(from, to Direction) (int64, error) {
	var seeded int64
	if from == TopDown {
		// Partial claims live in the per-worker next queues; the
		// bottom-up re-run outputs into the next bitmap. The top-down
		// kernel defers finalising its claims to gather time, which this
		// rescue skips, so finalise the seeds here (uncharged) or the
		// re-run would claim them a second time.
		for w, q := range h.NextQ {
			if h.k.Monotone {
				for _, v := range q {
					h.NextBM.Set(int(v))
				}
				h.k.Finalize(q)
				seeded += int64(len(q))
			}
			h.NextQ[w] = q[:0]
		}
		if err := h.ConvertFrontier(TopDown, BottomUp); err != nil {
			return 0, err
		}
		return seeded, nil
	}
	// Bottom-up failed: convert the frontier first (replicasToQueue uses
	// the next queues as scratch), then move the partial claims from the
	// next bitmap into a worker queue for the top-down promote path.
	if err := h.ConvertFrontier(BottomUp, TopDown); err != nil {
		return 0, err
	}
	words := h.NextBM.Words()
	for i, word := range words {
		words[i] = 0
		if !h.k.Monotone {
			continue
		}
		for ; word != 0; word &= word - 1 {
			h.NextQ[0] = append(h.NextQ[0], int64(i*64+bits.TrailingZeros64(word)))
			seeded++
		}
	}
	return seeded, nil
}

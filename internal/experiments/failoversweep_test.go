package experiments

import (
	"testing"
)

// TestFailoverSweepAcceptance runs the sweep at a tiny scale and checks
// the shape of the robustness payoff curve: the single-device baseline
// never fails over, mirrored arrays do under injected faults, and the
// scrubber repairs corruption everywhere it is injected.
func TestFailoverSweepAcceptance(t *testing.T) {
	opts := tinyOpts()
	// Scale 13 with a dozen roots, like the cache sweep's acceptance run:
	// at scale 10 the hybrid issues so few forward reads that even the top
	// fault rate fires roughly never and the curve is flat noise.
	opts.Scale = 13
	opts.Roots = 12
	rows, err := FailoverSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(FailoverReplicas) * len(FailoverRates)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	var mirroredFailovers, repaired int64
	for _, r := range rows {
		if r.TEPS <= 0 {
			t.Errorf("r=%d rate=%g: TEPS %g, want > 0", r.Replicas, r.Rate, r.TEPS)
		}
		if r.Replicas == 1 && r.Failovers != 0 {
			t.Errorf("single device reported %d failovers", r.Failovers)
		}
		if r.Rate == 0 && (r.ReadErrors != 0 || r.RepairedBlocks != 0) {
			t.Errorf("r=%d rate=0: errors=%d repaired=%d, want none",
				r.Replicas, r.ReadErrors, r.RepairedBlocks)
		}
		if r.Replicas == 1 && r.ScrubbedBlocks != 0 {
			t.Errorf("single device reported %d scrubbed blocks; there is no mirror",
				r.ScrubbedBlocks)
		}
		if r.Replicas > 1 && r.ScrubbedBlocks == 0 {
			t.Errorf("r=%d rate=%g: scrubber never ran", r.Replicas, r.Rate)
		}
		if r.DegradedRuns != 0 {
			t.Errorf("r=%d rate=%g: %d degraded runs; transient faults should recover",
				r.Replicas, r.Rate, r.DegradedRuns)
		}
		if r.Replicas == 1 && r.Rate == FailoverRates[len(FailoverRates)-1] &&
			r.ReadErrors == 0 {
			t.Error("single device at the top rate saw no read errors")
		}
		if r.Replicas > 1 && r.Rate > 0 {
			mirroredFailovers += r.Failovers
			repaired += r.RepairedBlocks
		}
	}
	if mirroredFailovers == 0 {
		t.Error("no mirrored row under faults recorded a failover")
	}
	if repaired == 0 {
		t.Error("no faulted row recorded a scrub repair")
	}
}

// TestFailoverSweepDeterminism re-runs the sweep and demands bit-identical
// rows — the reproducibility the acceptance criterion requires.
func TestFailoverSweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	a, err := FailoverSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FailoverSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical sweeps:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

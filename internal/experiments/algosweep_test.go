package experiments

import (
	"testing"

	"semibfs/internal/core"
)

// TestAlgoSweepAcceptance is the sweep's acceptance criterion: all three
// vertex programs complete through the full NVM stack (compressed,
// mirrored, checksummed, cached, partial backward offload) on both device
// profiles, each point validated inside AlgoSweep against its DRAM
// reference, with throughput figures populated.
func TestAlgoSweepAcceptance(t *testing.T) {
	opts := tinyOpts()
	rows, err := AlgoSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * len(CacheFractions)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.Scenario+"/"+r.Algo]++
		if r.Seconds <= 0 || r.EdgesPerSec <= 0 {
			t.Errorf("%s/%s frac=%g: no throughput: %+v", r.Scenario, r.Algo, r.Fraction, r)
		}
		if !r.Converged {
			t.Errorf("%s/%s frac=%g: did not converge", r.Scenario, r.Algo, r.Fraction)
		}
		if r.StateBytes <= 0 {
			t.Errorf("%s/%s frac=%g: no state snapshot", r.Scenario, r.Algo, r.Fraction)
		}
		if r.Iterations <= 0 {
			t.Errorf("%s/%s frac=%g: no iterations", r.Scenario, r.Algo, r.Fraction)
		}
		switch r.Algo {
		case "bfs":
			if r.TEPS <= 0 {
				t.Errorf("%s/bfs frac=%g: no TEPS", r.Scenario, r.Fraction)
			}
		case "cc", "pagerank":
			if r.IterationsPerSec <= 0 {
				t.Errorf("%s/%s frac=%g: no iteration throughput", r.Scenario, r.Algo, r.Fraction)
			}
		default:
			t.Errorf("unknown algo %q", r.Algo)
		}
	}
	for _, sc := range []string{core.ScenarioPCIeFlash.Name, core.ScenarioSSD.Name} {
		for _, algo := range []string{"bfs", "cc", "pagerank"} {
			if seen[sc+"/"+algo] != len(CacheFractions) {
				t.Errorf("%s/%s: %d rows, want %d", sc, algo, seen[sc+"/"+algo], len(CacheFractions))
			}
		}
	}
}

// TestAlgoSweepOneSystemPerBudget checks that the program is part of the
// run, not of the system: the sweep builds one system per (device, budget)
// point, on which all three programs run, plus the DRAM reference's.
func TestAlgoSweepOneSystemPerBudget(t *testing.T) {
	lab, err := NewLab(tinyOpts(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	if _, err := algoSweep(lab); err != nil {
		t.Fatal(err)
	}
	if got, want := len(lab.systems), 2*len(CacheFractions)+1; got != want {
		t.Fatalf("the sweep built %d systems, want %d", got, want)
	}
}

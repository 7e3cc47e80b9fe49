package experiments

import (
	"testing"

	"semibfs/internal/core"
)

// TestQuerySweepAcceptance runs the batching acceptance criterion: at the
// benchmark scale (fully deterministic), the harmonic-mean amortized
// per-query TEPS is monotone non-decreasing from B=1 up through B=16 on the
// PCIe profile, every row serves the whole stream, and wide batches share
// the page cache harder than B=1 does.
func TestQuerySweepAcceptance(t *testing.T) {
	opts := tinyOpts()
	// Scale 13 with a dozen roots, matching the recorded benchmark: tiny
	// instances leave so few levels that a 4-wide batch can lose to the
	// single-source baseline on scheduling noise alone.
	opts.Scale = 13
	opts.Roots = 12
	rows, err := QuerySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(QueryBatchWidths); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	byWidth := map[string]map[int]QueryRow{}
	for _, r := range rows {
		if r.Queries != opts.Roots {
			t.Fatalf("%s B=%d served %d queries, want %d", r.Scenario, r.Lanes, r.Queries, opts.Roots)
		}
		if want := (r.Queries + r.Lanes - 1) / r.Lanes; r.Batches != want {
			t.Fatalf("%s B=%d ran %d batches, want %d", r.Scenario, r.Lanes, r.Batches, want)
		}
		if r.TEPS <= 0 || r.AmortizedSeconds <= 0 {
			t.Fatalf("%s B=%d: degenerate row %+v", r.Scenario, r.Lanes, r)
		}
		if byWidth[r.Scenario] == nil {
			byWidth[r.Scenario] = map[int]QueryRow{}
		}
		byWidth[r.Scenario][r.Lanes] = r
	}
	pcie := byWidth[core.ScenarioPCIeFlash.Name]
	prev := 0.0
	for _, b := range QueryBatchWidths {
		if b > 16 {
			break
		}
		r := pcie[b]
		if r.TEPS < prev {
			t.Errorf("PCIe amortized TEPS not monotone at B=%d: %.4g < %.4g", b, r.TEPS, prev)
		}
		prev = r.TEPS
	}
	for sc, rs := range byWidth {
		if rs[16].CacheHitRate <= rs[1].CacheHitRate {
			t.Errorf("%s: B=16 hit rate %.3f not above B=1's %.3f — lanes are not sharing the cache",
				sc, rs[16].CacheHitRate, rs[1].CacheHitRate)
		}
	}
}

// TestQuerySweepDeterminism re-runs the sweep and demands bit-identical
// rows — the serving layer inherits the engine's fixed-seed
// reproducibility.
func TestQuerySweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	a, err := QuerySweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuerySweep(opts)
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

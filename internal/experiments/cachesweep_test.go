package experiments

import (
	"testing"

	"semibfs/internal/core"
)

// TestCacheSweepAcceptance runs the acceptance criterion of the cache
// layer: at a fixed seed with one real worker (fully deterministic), the
// hybrid TEPS with a cache budget >= 1/8 of the forward graph is strictly
// higher than with CacheBytes=0, on both the PCIe and SATA profiles.
func TestCacheSweepAcceptance(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 1
	// Scale 13 with a dozen roots: at scale 10 a 1/32 budget is a single
	// 4 KiB page (no ring for eviction to work with), and three roots
	// give the cross-root reuse that carries the cache almost no weight.
	opts.Scale = 13
	opts.Roots = 12
	rows, err := CacheSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * len(CacheFractions)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}

	type key struct {
		sc, mode string
		frac     float64
	}
	byKey := map[key]CacheRow{}
	for _, r := range rows {
		byKey[key{r.Scenario, r.Mode, r.Fraction}] = r
	}
	for _, sc := range []string{core.ScenarioPCIeFlash.Name, core.ScenarioSSD.Name} {
		for _, mode := range []string{"hybrid", "top-down-only"} {
			base := byKey[key{sc, mode, 0}]
			if base.CacheBytes != 0 || base.Hits != 0 {
				t.Fatalf("%s/%s: uncached row has cache activity: %+v", sc, mode, base)
			}
			for _, frac := range CacheFractions[1:] {
				r := byKey[key{sc, mode, frac}]
				if r.CacheBytes <= 0 {
					t.Fatalf("%s/%s frac=%g: no budget", sc, mode, frac)
				}
				if r.HitRate <= 0 {
					t.Fatalf("%s/%s frac=%g: zero hit rate", sc, mode, frac)
				}
				if r.NVMReads >= base.NVMReads {
					t.Errorf("%s/%s frac=%g: NVM reads %d not below uncached %d",
						sc, mode, frac, r.NVMReads, base.NVMReads)
				}
				// The acceptance bound: strictly higher TEPS at >= 1/8.
				if frac >= 1.0/8 && r.TEPS <= base.TEPS {
					t.Errorf("%s/%s frac=%g: TEPS %.4g not above uncached %.4g",
						sc, mode, frac, r.TEPS, base.TEPS)
				}
			}
		}
	}
}

// TestCacheSweepDeterminism re-runs the sweep and demands bit-identical
// rows — the fixed-seed reproducibility the acceptance criterion requires.
func TestCacheSweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	opts.Workers = 1
	a, err := CacheSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CacheSweep(opts)
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

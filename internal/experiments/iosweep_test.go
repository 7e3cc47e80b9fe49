package experiments

import (
	"testing"

	"semibfs/internal/core"
)

// TestIOSweepAcceptance runs the tentpole's acceptance criterion at the
// bench scale: with the default cache budget (1/8 of the raw forward
// footprint), the compressed+async hybrid rows must reach at least 1.5x
// the raw synchronous TEPS on the SATA SSD profile, compression must
// actually compress, and the async layer's coalescing counters must show
// the pipeline carried traffic where it is enabled.
func TestIOSweepAcceptance(t *testing.T) {
	// The exact configuration EXPERIMENTS.md reports (`analyze -exp io
	// -scale 13 -roots 12`: default edge factor and seed).
	opts := Options{
		Scale:                  13,
		Roots:                  12,
		ScaleEquivalentLatency: true,
	}
	rows, err := IOSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 2 * len(IOQueueDepths)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}

	type key struct {
		sc, mode string
		cmp      bool
		qd       int
	}
	byKey := map[key]IORow{}
	for _, r := range rows {
		byKey[key{r.Scenario, r.Mode, r.Compress, r.QueueDepth}] = r
	}
	for _, sc := range []string{core.ScenarioPCIeFlash.Name, core.ScenarioSSD.Name} {
		for _, mode := range []string{"hybrid", "top-down-only"} {
			base := byKey[key{sc, mode, false, 0}]
			if base.TEPS <= 0 || base.Speedup != 1 {
				t.Fatalf("%s/%s: bad raw synchronous baseline: %+v", sc, mode, base)
			}
			if base.CompressionRatio != 1 || base.DemandRuns != 0 {
				t.Fatalf("%s/%s: baseline shows compression or async activity: %+v",
					sc, mode, base)
			}
			for _, cmp := range []bool{false, true} {
				for _, qd := range IOQueueDepths {
					r := byKey[key{sc, mode, cmp, qd}]
					if r.CacheBytes != base.CacheBytes {
						t.Fatalf("%s/%s cmp=%v qd=%d: budget %d differs from baseline %d",
							sc, mode, cmp, qd, r.CacheBytes, base.CacheBytes)
					}
					if cmp && r.CompressionRatio < 2 {
						t.Errorf("%s/%s qd=%d: compression ratio %.2f, want >= 2",
							sc, mode, qd, r.CompressionRatio)
					}
					if cmp && r.NVMReadBytes >= base.NVMReadBytes {
						t.Errorf("%s/%s qd=%d: compressed moved %d NVM bytes, raw moved %d",
							sc, mode, qd, r.NVMReadBytes, base.NVMReadBytes)
					}
					// The pipeline must carry traffic whenever a queue is
					// configured on the raw rows (compressed reads are
					// mostly sub-block, so only demand coalescing on the
					// raw format is guaranteed activity).
					if qd > 0 && !cmp && r.DemandRuns == 0 && r.PrefetchBlocks == 0 {
						t.Errorf("%s/%s qd=%d: async layer saw no traffic", sc, mode, qd)
					}
					if qd == 0 && (r.DemandRuns != 0 || r.PrefetchBlocks != 0) {
						t.Errorf("%s/%s cmp=%v: synchronous row has async counters: %+v",
							sc, mode, cmp, r)
					}
				}
			}
		}
	}

	// The headline bound: compressed + async at least 1.5x raw
	// synchronous in hybrid mode on the SATA profile (the PCIe profile
	// clears the same bar with margin).
	for _, sc := range []string{core.ScenarioPCIeFlash.Name, core.ScenarioSSD.Name} {
		best := 0.0
		for _, qd := range IOQueueDepths[1:] {
			if s := byKey[key{sc, "hybrid", true, qd}].Speedup; s > best {
				best = s
			}
		}
		if best < 1.5 {
			t.Errorf("%s hybrid: compressed+async speedup %.3f, want >= 1.5", sc, best)
		}
	}
}

// TestIOSweepDeterminism re-runs the sweep and demands bit-identical
// rows — fixed-seed reproducibility.
func TestIOSweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	a, err := IOSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := IOSweep(opts)
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

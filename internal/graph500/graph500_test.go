package graph500

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/vtime"
)

func smallParams(sc core.Scenario) Params {
	return Params{
		Scale:         10,
		EdgeFactor:    8,
		Seed:          77,
		Roots:         6,
		ValidateRoots: 0, // validate every root at this size
		Scenario:      sc,
		BFS:           bfs.Config{Alpha: 100, Beta: 1000},
	}
}

func TestRunDRAMOnly(t *testing.T) {
	res, err := Run(smallParams(core.ScenarioDRAMOnly))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoot) != 6 {
		t.Fatalf("%d roots", len(res.PerRoot))
	}
	if res.MedianTEPS() <= 0 {
		t.Fatal("non-positive median TEPS")
	}
	if res.TEPS.Min > res.TEPS.Median || res.TEPS.Median > res.TEPS.Max {
		t.Fatalf("TEPS summary inconsistent: %+v", res.TEPS)
	}
	if res.NVMBytes != 0 || res.DRAMBytes == 0 {
		t.Fatalf("placement: DRAM %d NVM %d", res.DRAMBytes, res.NVMBytes)
	}
	if res.DeviceStats.Reads != 0 {
		t.Fatal("DRAM-only saw device reads")
	}
	for _, rr := range res.PerRoot {
		if rr.Traversed <= 0 || rr.Visited <= 1 {
			t.Fatalf("degenerate root result: %+v", rr)
		}
	}
}

func TestRunNVMScenarios(t *testing.T) {
	dram, err := Run(smallParams(core.ScenarioDRAMOnly))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []core.Scenario{core.ScenarioPCIeFlash, core.ScenarioSSD} {
		res, err := Run(smallParams(sc))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.NVMBytes == 0 {
			t.Errorf("%s: nothing on NVM", sc.Name)
		}
		if res.DeviceStats.Reads == 0 {
			t.Errorf("%s: no device reads", sc.Name)
		}
		if res.MedianTEPS() >= dram.MedianTEPS() {
			t.Errorf("%s median %v not below DRAM-only %v",
				sc.Name, res.MedianTEPS(), dram.MedianTEPS())
		}
		// The traversal itself is identical: same visited counts.
		for i := range res.PerRoot {
			if res.PerRoot[i].Visited != dram.PerRoot[i].Visited {
				t.Errorf("%s root %d visited %d, DRAM %d", sc.Name, i,
					res.PerRoot[i].Visited, dram.PerRoot[i].Visited)
			}
			if res.PerRoot[i].Root != dram.PerRoot[i].Root {
				t.Errorf("root sampling differs across scenarios")
			}
		}
	}
}

func TestPCIeFasterThanSSD(t *testing.T) {
	p := smallParams(core.ScenarioPCIeFlash)
	pcie, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Scenario = core.ScenarioSSD
	ssd, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if pcie.MedianTEPS() <= ssd.MedianTEPS() {
		t.Fatalf("PCIe (%v) not faster than SSD (%v)",
			pcie.MedianTEPS(), ssd.MedianTEPS())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(smallParams(core.ScenarioDRAMOnly))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallParams(core.ScenarioDRAMOnly))
	if err != nil {
		t.Fatal(err)
	}
	if a.MedianTEPS() != b.MedianTEPS() {
		t.Fatalf("median differs: %v vs %v", a.MedianTEPS(), b.MedianTEPS())
	}
	for i := range a.PerRoot {
		if a.PerRoot[i].Time != b.PerRoot[i].Time {
			t.Fatalf("root %d vtime differs", i)
		}
	}
}

func TestKeepLevelStats(t *testing.T) {
	p := smallParams(core.ScenarioDRAMOnly)
	p.KeepLevelStats = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range res.PerRoot {
		if len(rr.Levels) == 0 {
			t.Fatalf("root %d has no level stats", i)
		}
	}
	p.KeepLevelStats = false
	res, err = Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRoot[0].Levels) != 0 {
		t.Fatal("level stats kept despite flag off")
	}
}

func TestTraversedFromDegreesMatchesValidation(t *testing.T) {
	// With ValidateRoots=0 every root is validated (streamed count);
	// with ValidateRoots=1 the rest use the degree-sum shortcut. The
	// TEPS denominators must agree.
	p := smallParams(core.ScenarioDRAMOnly)
	full, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.ValidateRoots = 1
	quick, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.PerRoot {
		if full.PerRoot[i].Traversed != quick.PerRoot[i].Traversed {
			t.Fatalf("root %d: streamed %d != degree-sum %d", i,
				full.PerRoot[i].Traversed, quick.PerRoot[i].Traversed)
		}
	}
}

func TestSampleRoots(t *testing.T) {
	deg := func(v int64) int64 {
		if v%2 == 0 {
			return 0 // even vertices isolated
		}
		return 3
	}
	roots, err := SampleRoots(1000, 20, 9, deg)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 20 {
		t.Fatalf("%d roots", len(roots))
	}
	seen := map[int64]bool{}
	for _, r := range roots {
		if r%2 == 0 {
			t.Fatalf("isolated root %d sampled", r)
		}
		if seen[r] {
			t.Fatalf("duplicate root %d", r)
		}
		seen[r] = true
	}
}

func TestSampleRootsFailsOnAllIsolated(t *testing.T) {
	if _, err := SampleRoots(100, 5, 1, func(int64) int64 { return 0 }); err == nil {
		t.Fatal("sampling from an edgeless graph succeeded")
	}
}

func TestSampleRootsDeterministic(t *testing.T) {
	deg := func(v int64) int64 { return 1 }
	a, _ := SampleRoots(1000, 10, 42, deg)
	b, _ := SampleRoots(1000, 10, 42, deg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestRunReference(t *testing.T) {
	p := smallParams(core.Scenario{})
	p.Scenario = core.Scenario{} // ignored
	res, err := RunReference(smallList(t, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianTEPS() <= 0 {
		t.Fatal("reference TEPS not positive")
	}
	hybrid, err := Run(smallParams(core.ScenarioDRAMOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianTEPS() >= hybrid.MedianTEPS() {
		t.Fatalf("reference (%v) not slower than hybrid (%v)",
			res.MedianTEPS(), hybrid.MedianTEPS())
	}
}

func TestDeviceSeriesRecorded(t *testing.T) {
	p := smallParams(core.ScenarioSSD)
	src := edgelist.ListSource{List: smallList(t, p)}
	sys, err := core.Build(src, p.BFS.WithDefaults().Topology, p.Scenario,
		core.BuildOptions{SeriesBinWidth: 100 * vtime.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := RunOnSystem(sys, src, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceSeries) == 0 {
		t.Fatal("no device series recorded")
	}
	var reqs int64
	for _, pt := range res.DeviceSeries {
		reqs += pt.Requests
	}
	if reqs != res.DeviceStats.Reads+res.DeviceStats.Writes {
		t.Fatalf("series requests %d != device total %d",
			reqs, res.DeviceStats.Reads+res.DeviceStats.Writes)
	}
}

func TestBackwardLimitAccessCounters(t *testing.T) {
	sc := core.ScenarioPCIeFlash
	sc.BackwardDRAMEdgeLimit = 2
	res, err := Run(smallParams(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.BackwardDRAMScans == 0 {
		t.Fatal("no DRAM backward scans counted")
	}
	if res.BackwardNVMScans == 0 {
		t.Fatal("no NVM backward scans counted with limit 2")
	}
	// With hub-first ordering most probes answer from DRAM.
	ratio := float64(res.BackwardNVMScans) /
		float64(res.BackwardNVMScans+res.BackwardDRAMScans)
	if ratio > 0.8 {
		t.Errorf("NVM scan ratio %.2f implausibly high", ratio)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{Scale: 5}.WithDefaults()
	if p.EdgeFactor != 16 || p.Roots != DefaultRoots {
		t.Fatalf("defaults: %+v", p)
	}
	if p.Scenario.Name != core.ScenarioDRAMOnly.Name {
		t.Fatalf("default scenario %q", p.Scenario.Name)
	}
}

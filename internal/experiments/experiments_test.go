package experiments

import (
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
)

// tinyOpts keeps experiment smoke tests fast: a SCALE 10 instance with
// few roots exercises every code path in well under a second each.
func tinyOpts() Options {
	return Options{
		Scale:                  10,
		EdgeFactor:             8,
		Seed:                   5,
		Roots:                  3,
		ScaleEquivalentLatency: true,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Scale != 18 || o.SmallScale != 17 || o.EdgeFactor != 16 ||
		o.Seed == 0 || o.Roots != 16 {
		t.Fatalf("defaults: %+v", o)
	}
	o = Options{Scale: 20}.WithDefaults()
	if o.SmallScale != 19 {
		t.Fatalf("SmallScale = %d", o.SmallScale)
	}
}

func TestLabCachesSystems(t *testing.T) {
	lab, err := NewLab(tinyOpts(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	a, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.System(core.ScenarioDRAMOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same scenario built twice")
	}
	c, err := lab.System(core.ScenarioPCIeFlash, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different scenarios shared a system")
	}
	// The key is the whole scenario, so any single field separates systems.
	idx := core.ScenarioPCIeFlash
	idx.IndexInDRAM = true
	d, err := lab.System(idx, false)
	if err != nil {
		t.Fatal(err)
	}
	if c == d {
		t.Fatal("scenarios differing only in IndexInDRAM shared a system")
	}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestTableII(t *testing.T) {
	measured, paper, err := TableII(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(measured) != 4 || len(paper) != 4 {
		t.Fatalf("row counts: %d/%d", len(measured), len(paper))
	}
	if measured[3].Bytes != measured[0].Bytes+measured[1].Bytes+measured[2].Bytes {
		t.Fatal("total row inconsistent")
	}
	// The paper column reflects SCALE 27: forward > backward > status.
	if !(paper[0].Bytes > paper[1].Bytes && paper[1].Bytes > paper[2].Bytes) {
		t.Fatalf("paper column ordering: %+v", paper)
	}
}

func TestFig3(t *testing.T) {
	rows := Fig3(nil, 16)
	if len(rows) != 12 || rows[0].Scale != 20 || rows[11].Scale != 31 {
		t.Fatalf("default scales: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Total() <= rows[i-1].Total() {
			t.Fatal("sizes not increasing with scale")
		}
	}
}

func TestFig7SweepStructure(t *testing.T) {
	opts := tinyOpts()
	sweeps, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 {
		t.Fatalf("%d scenarios", len(sweeps))
	}
	wantCells := len(SweepAlphas) * len(SweepBetaMults)
	for _, sw := range sweeps {
		if len(sw.Cells) != wantCells {
			t.Fatalf("%s: %d cells, want %d", sw.Scenario, len(sw.Cells), wantCells)
		}
		if sw.Best.TEPS <= 0 {
			t.Fatalf("%s: best TEPS %v", sw.Scenario, sw.Best.TEPS)
		}
	}
	// DRAM-only must win overall.
	if sweeps[0].Best.TEPS < sweeps[1].Best.TEPS ||
		sweeps[0].Best.TEPS < sweeps[2].Best.TEPS {
		t.Errorf("DRAM-only (%v) not best: pcie %v ssd %v",
			sweeps[0].Best.TEPS, sweeps[1].Best.TEPS, sweeps[2].Best.TEPS)
	}
}

func TestFig8IncludesBaselines(t *testing.T) {
	series, err := Fig8(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s.Name] = true
	}
	for _, want := range []string{
		"DRAM-only", "DRAM+PCIeFlash", "DRAM+SSD",
		"top-down-only (DRAM)", "bottom-up-only (DRAM)", "Graph500 reference (DRAM)",
	} {
		if !names[want] {
			t.Fatalf("missing series %q (have %v)", want, names)
		}
	}
}

func TestFig9OmitsBaselines(t *testing.T) {
	opts := tinyOpts()
	opts.SmallScale = 9
	series, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series, want 3 scenarios only", len(series))
	}
}

func TestFig10Rows(t *testing.T) {
	rows, err := Fig10(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig8Alphas)*len(Fig8BetaMults) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total != r.TD+r.BU {
			t.Fatalf("row %+v: total != TD+BU", r)
		}
		if r.Total <= 0 {
			t.Fatalf("row %+v: no traversal", r)
		}
	}
}

func TestFig11Degradation(t *testing.T) {
	res, err := Fig11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d scenarios", len(res))
	}
	for _, r := range res {
		if len(r.Points) == 0 {
			t.Fatalf("%s: no TD levels measured", r.Scenario)
		}
		if r.Max < 1 {
			t.Errorf("%s: max ratio %v < 1 — NVM not slower?", r.Scenario, r.Max)
		}
	}
	// SSD degradation must exceed PCIe degradation at the top.
	if res[1].Max <= res[0].Max {
		t.Errorf("SSD max ratio %v not above PCIe %v", res[1].Max, res[0].Max)
	}
}

func TestFig12And13(t *testing.T) {
	usages, err := Fig12And13(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(usages) != 2 {
		t.Fatalf("%d usages", len(usages))
	}
	for _, u := range usages {
		if u.Stats.Reads == 0 {
			t.Fatalf("%s: no reads", u.Scenario)
		}
		if u.Stats.AvgRequestSectors <= 0 {
			t.Fatalf("%s: avgrq-sz %v", u.Scenario, u.Stats.AvgRequestSectors)
		}
	}
}

func TestFig14Trend(t *testing.T) {
	rows, err := Fig14(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig14Limits) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Limit != Fig14Limits[i] {
			t.Fatalf("row %d limit %d", i, r.Limit)
		}
		if r.DRAMSizeReductionPct < 0 || r.DRAMSizeReductionPct > 100 {
			t.Fatalf("reduction %v%%", r.DRAMSizeReductionPct)
		}
		if r.NVMAccessPct < 0 || r.NVMAccessPct > 100 {
			t.Fatalf("access ratio %v%%", r.NVMAccessPct)
		}
	}
	// Monotone trends: a smaller k saves more DRAM and reads NVM more.
	for i := 1; i < len(rows); i++ {
		if rows[i].DRAMSizeReductionPct > rows[i-1].DRAMSizeReductionPct {
			t.Errorf("reduction not decreasing with k: %+v", rows)
		}
		if rows[i].NVMAccessPct > rows[i-1].NVMAccessPct {
			t.Errorf("NVM access not decreasing with k: %+v", rows)
		}
	}
}

func TestHeadlineOrdering(t *testing.T) {
	rows, err := Headline(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]HeadlineRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	dram := byName[core.ScenarioDRAMOnly.Name]
	pcie := byName[core.ScenarioPCIeFlash.Name]
	ssd := byName[core.ScenarioSSD.Name]
	if dram.DegradationPct != 0 {
		t.Errorf("DRAM-only degradation %v%%", dram.DegradationPct)
	}
	if !(dram.TEPS > pcie.TEPS && pcie.TEPS > ssd.TEPS) {
		t.Errorf("ordering violated: %v / %v / %v", dram.TEPS, pcie.TEPS, ssd.TEPS)
	}
	if pcie.NVMBytes == 0 || ssd.NVMBytes == 0 {
		t.Error("NVM scenarios report no NVM bytes")
	}
}

func TestGreen(t *testing.T) {
	rows, err := Green(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Watts <= 0 || r.MTEPSPerW <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestLabRunHonorsMode(t *testing.T) {
	lab, err := NewLab(tinyOpts(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	hybrid, err := lab.Run(core.ScenarioDRAMOnly, bfs.Config{Alpha: 100, Beta: 1000}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	td, err := lab.Run(core.ScenarioDRAMOnly,
		bfs.Config{Alpha: 100, Beta: 1000, Mode: bfs.ModeTopDownOnly}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if td.PerRoot[0].ExaminedBU != 0 {
		t.Fatal("top-down-only examined bottom-up edges")
	}
	if hybrid.PerRoot[0].ExaminedBU == 0 {
		t.Fatal("hybrid never went bottom-up at alpha=100")
	}
}

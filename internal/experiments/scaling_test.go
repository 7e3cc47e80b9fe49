package experiments

import (
	"reflect"
	"testing"

	"semibfs/internal/faults"
)

func TestScaling(t *testing.T) {
	rows, err := Scaling(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ScalingMachines) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Machines != ScalingMachines[i] {
			t.Fatalf("row %d machines %d", i, r.Machines)
		}
		if r.TEPS <= 0 || r.NVMTEPS <= 0 {
			t.Fatalf("row %+v: non-positive TEPS", r)
		}
		// Per-machine offload must not be faster than DRAM.
		if r.NVMTEPS > r.TEPS*1.001 {
			t.Fatalf("row %+v: NVM faster than DRAM", r)
		}
		if r.Machines == 1 && r.CommBytes != 0 {
			t.Fatalf("single machine communicated %d bytes", r.CommBytes)
		}
		if r.Machines > 1 && r.CommBytes == 0 {
			t.Fatalf("%d machines reported no communication", r.Machines)
		}
		if r.TEPS2D <= 0 {
			t.Fatalf("row %+v: no 2D TEPS", r)
		}
		// At P=16 (4x4 grid) the 2D bottom-up allgather must undercut
		// 1D: column collectives span R=sqrt(P) machines instead of P.
		// (Totals need not favor 2D — the ring pays for parent updates
		// the 1D layout resolves locally.)
		if r.Machines == 16 && r.Comm2D.BUAllgather >= r.Comm.BUAllgather {
			t.Fatalf("P=16: 2D allgather %d not below 1D %d",
				r.Comm2D.BUAllgather, r.Comm.BUAllgather)
		}
	}
	// Communication grows with machine count.
	for i := 2; i < len(rows); i++ {
		if rows[i].CommBytes <= rows[i-1].CommBytes {
			t.Fatalf("comm not increasing: %+v", rows)
		}
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]AblationRow{}
	studies := map[string]int{}
	for _, r := range rows {
		byVariant[r.Variant] = r
		studies[r.Study]++
		if r.TEPS <= 0 {
			t.Fatalf("row %+v: no TEPS", r)
		}
	}
	if len(studies) != 3 {
		t.Fatalf("studies: %v", studies)
	}
	// Hubs-first ordering must examine fewer bottom-up edges than
	// ID order.
	netal := byVariant["degree-desc (NETAL)"]
	byID := byVariant["by vertex ID"]
	if netal.ExaminedBU >= byID.ExaminedBU {
		t.Errorf("NETAL order examined %d BU edges, ID order %d",
			netal.ExaminedBU, byID.ExaminedBU)
	}
	// DRAM-resident index must not increase NVM requests.
	onNVM := byVariant["index on NVM (paper)"]
	inDRAM := byVariant["index in DRAM"]
	if inDRAM.NVMReads >= onNVM.NVMReads {
		t.Errorf("DRAM index did not reduce requests: %d vs %d",
			inDRAM.NVMReads, onNVM.NVMReads)
	}
}

func TestPearceComparison(t *testing.T) {
	rows, err := PearceComparison(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	hybrid, scan := rows[0], rows[1]
	if hybrid.TEPS <= scan.TEPS {
		t.Fatalf("hybrid (%v) not faster than scan baseline (%v)",
			hybrid.TEPS, scan.TEPS)
	}
	// The paper's capacity argument: the hybrid keeps a much higher
	// DRAM:NVM ratio than the scan baseline.
	if hybrid.DRAMRatio <= scan.DRAMRatio {
		t.Fatalf("DRAM ratios: hybrid %v, scan %v", hybrid.DRAMRatio, scan.DRAMRatio)
	}
	if scan.DRAMRatio > 0.2 {
		t.Fatalf("scan baseline DRAM ratio %v implausibly high", scan.DRAMRatio)
	}
}

// TestAmbientFaultsReachAssembledScenarios: Options.Faults applies to every
// NVM scenario a sweep builds, the ones ablations, scaling and scale
// assemble themselves included. With a transient rate set, each entry still
// succeeds and its rows differ from the fault-free ones.
func TestAmbientFaultsReachAssembledScenarios(t *testing.T) {
	entries, err := Select("ablations,scaling,scale")
	if err != nil {
		t.Fatal(err)
	}
	faulty := tinyOpts()
	faulty.Faults = faults.Config{Seed: 7, TransientRate: 0.3}
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			clean, err := e.Run(tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(faulty)
			if err != nil {
				t.Fatalf("with faults: %v", err)
			}
			if reflect.DeepEqual(clean.Rows, res.Rows) {
				t.Error("rows with a 30% transient fault rate equal the fault-free rows")
			}
		})
	}
}

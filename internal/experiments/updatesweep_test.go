package experiments

import (
	"testing"
)

// TestUpdateSweepAcceptance runs the sweep at a tiny scale and checks
// the shape of the durability story: every configuration applies its
// updates, the crashed runs recover and replay exactly what survived,
// and incremental repair costs far less than a fresh rebuild.
func TestUpdateSweepAcceptance(t *testing.T) {
	opts := tinyOpts()
	rows, err := UpdateSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(UpdateBatchSizes) * len(UpdateCrashes)
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Applied <= 0 {
			t.Errorf("%s b=%d %s: no updates applied", r.Scenario, r.BatchSize, r.Crash)
		}
		if r.WALBytes <= 0 {
			t.Errorf("%s b=%d %s: no WAL bytes", r.Scenario, r.BatchSize, r.Crash)
		}
		if r.UpdateUs <= 0 || r.RebuildUs <= 0 {
			t.Errorf("%s b=%d %s: non-positive timings %+v", r.Scenario, r.BatchSize, r.Crash, r)
		}
		switch r.Crash {
		case "none":
			if r.CompactUs <= 0 {
				t.Errorf("%s b=%d: clean run never compacted", r.Scenario, r.BatchSize)
			}
			if r.RecoveryUs != 0 || r.Replayed != 0 {
				t.Errorf("%s b=%d: clean run reports recovery %+v", r.Scenario, r.BatchSize, r)
			}
			if full := int64(UpdateBatches * r.BatchSize); r.Applied != full {
				t.Errorf("%s b=%d: applied %d, want %d", r.Scenario, r.BatchSize, r.Applied, full)
			}
		case "wal":
			if r.RecoveryUs <= 0 {
				t.Errorf("%s b=%d wal: no recovery cost", r.Scenario, r.BatchSize)
			}
			// The torn batch must be dropped: only the pre-cut batches
			// replay.
			if cutAt := int64(UpdateBatches/2) * int64(r.BatchSize); r.Replayed != cutAt {
				t.Errorf("%s b=%d wal: replayed %d, want %d", r.Scenario, r.BatchSize, r.Replayed, cutAt)
			}
		case "compaction":
			if r.RecoveryUs <= 0 {
				t.Errorf("%s b=%d compaction: no recovery cost", r.Scenario, r.BatchSize)
			}
			// The flip never landed: every durable update replays.
			if r.Replayed != r.Applied {
				t.Errorf("%s b=%d compaction: replayed %d of %d", r.Scenario, r.BatchSize, r.Replayed, r.Applied)
			}
		}
		if r.RepairSpeedup <= 1 {
			t.Errorf("%s b=%d %s: repair speedup %.2f, want > 1", r.Scenario, r.BatchSize, r.Crash, r.RepairSpeedup)
		}
	}
}

// TestUpdateSweepDeterminism re-runs the sweep and demands bit-identical
// rows.
func TestUpdateSweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	a, err := UpdateSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UpdateSweep(opts)
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

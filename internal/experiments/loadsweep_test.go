package experiments

import (
	"testing"

	"semibfs/internal/core"
)

// TestLoadSweepGracefulDegradation runs the serving acceptance criterion at
// a small deterministic scale: every row conserves its query stream, and at
// the deepest offered load the bounded server sheds while keeping the p99
// of admitted queries below the unbounded baseline's — graceful degradation
// past the knee.
func TestLoadSweepGracefulDegradation(t *testing.T) {
	opts := tinyOpts()
	// 128 queries per row: the stream must be long enough to overflow 16
	// lanes plus a 16-deep queue before saturation behaviour is visible.
	opts.Roots = 32
	rows, err := LoadSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * len(LoadSweepLoadFactors); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	type key struct {
		sc   string
		lf   float64
		shed bool
	}
	byKey := map[key]LoadRow{}
	for _, r := range rows {
		if int64(r.Queries) != r.Served+r.Shed+r.Expired {
			t.Fatalf("%s load=%gx shed=%v: %d queries but served+shed+expired = %d",
				r.Scenario, r.LoadFactor, r.Shedding, r.Queries, r.Served+r.Shed+r.Expired)
		}
		if r.Served == 0 || r.P99 <= 0 || r.CapacityQPS <= 0 {
			t.Fatalf("%s load=%gx shed=%v: degenerate row %+v", r.Scenario, r.LoadFactor, r.Shedding, r)
		}
		if !r.Shedding && (r.Shed != 0 || r.Expired != 0) {
			t.Fatalf("%s load=%gx: unbounded baseline shed %d / expired %d",
				r.Scenario, r.LoadFactor, r.Shed, r.Expired)
		}
		byKey[key{r.Scenario, r.LoadFactor, r.Shedding}] = r
	}
	deepest := LoadSweepLoadFactors[len(LoadSweepLoadFactors)-1]
	for _, sc := range []string{core.ScenarioPCIeFlash.Name, core.ScenarioSSD.Name} {
		bounded := byKey[key{sc, deepest, true}]
		unbounded := byKey[key{sc, deepest, false}]
		if bounded.Shed+bounded.Expired == 0 {
			t.Errorf("%s at %gx capacity: admission control rejected nothing", sc, deepest)
		}
		if bounded.P99 >= unbounded.P99 {
			t.Errorf("%s at %gx capacity: bounded p99 %.4g not below unbounded %.4g",
				sc, deepest, bounded.P99, unbounded.P99)
		}
		if bounded.MaxQueueDepth > LoadSweepLanes {
			t.Errorf("%s: bounded queue reached depth %d past its cap %d",
				sc, bounded.MaxQueueDepth, LoadSweepLanes)
		}
		if unbounded.MaxQueueDepth <= bounded.MaxQueueDepth {
			t.Errorf("%s: unbounded queue depth %d not beyond bounded %d",
				sc, unbounded.MaxQueueDepth, bounded.MaxQueueDepth)
		}
	}
}

// TestLoadSweepDeterminism re-runs the sweep and demands bit-identical
// rows: offered load, admission, shedding, and every latency quantile live
// on the virtual clock, so the host must not leak into the results.
func TestLoadSweepDeterminism(t *testing.T) {
	opts := tinyOpts()
	opts.Roots = 4
	a, err := LoadSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

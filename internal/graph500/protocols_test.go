package graph500

import (
	"errors"
	"math"
	"testing"

	"semibfs/internal/cluster"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/nvm"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

func smallList(t *testing.T, p Params) *edgelist.List {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: p.Scale, EdgeFactor: p.EdgeFactor, Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// TestTreeRepair drives the durable-update protocol's shared pieces through
// each crash kind with the CLI's policy (recover in place, keep streaming):
// the scheduled cut fires where CrashFaults put it, the counts add up, and
// the maintained tree equals a fresh top-down rebuild at every stop.
func TestTreeRepair(t *testing.T) {
	const batches, size = 6, 8
	p := smallParams(core.ScenarioPCIeFlash)
	p.Scale = 9
	list := smallList(t, p)
	for _, crash := range []string{"none", "wal", "compaction"} {
		t.Run(crash, func(t *testing.T) {
			sc := p.Scenario
			sc.BackwardDRAMEdgeLimit = 4
			var err error
			if sc.Faults, err = CrashFaults(crash, p.Seed, batches); err != nil {
				t.Fatal(err)
			}
			clock := vtime.NewClock(0)
			ds, err := core.BuildDynamic(edgelist.ListSource{List: list}, p.BFS.WithDefaults().Topology, sc, clock)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			tr, err := NewTreeRepair(ds, clock, p.BFS, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Rebuild <= 0 {
				t.Fatal("the seeding rebuild took no virtual time")
			}
			us := dyn.NewUpdateStream(list, p.Seed|1)
			cutAt := -1
			for b := 0; b < batches; b++ {
				_, scanned, err := tr.Step(us, size)
				if errors.Is(err, nvm.ErrPowerCut) {
					cutAt = b
					if _, replayed, err := tr.Recover(); err != nil {
						t.Fatal(err)
					} else if want := int64(tr.Batches * size); replayed != want {
						t.Fatalf("replayed %d updates after the WAL cut, want the %d durable ones", replayed, want)
					}
					if err := tr.Verify(); err != nil {
						t.Fatalf("after WAL recovery: %v", err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if scanned == 0 {
					t.Fatalf("batch %d repaired without scanning an edge", b)
				}
			}
			wantCut, wantBatches := -1, batches
			if crash == "wal" {
				wantCut, wantBatches = batches/2, batches-1
			}
			if cutAt != wantCut {
				t.Fatalf("power cut at batch %d, want %d", cutAt, wantCut)
			}
			if tr.Batches != wantBatches || tr.UpdateTime <= 0 || tr.RepairEdges == 0 {
				t.Fatalf("totals: %d batches (want %d), update time %v, %d repair edges",
					tr.Batches, wantBatches, tr.UpdateTime, tr.RepairEdges)
			}
			err = ds.Graph.Compact(clock)
			if crash == "compaction" {
				if !errors.Is(err, nvm.ErrPowerCut) {
					t.Fatalf("compact: %v, want the scheduled power cut", err)
				}
				rclock, replayed, err := tr.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if replayed != batches*size || rclock.Now() <= 0 {
					t.Fatalf("recovery replayed %d updates in %v, want %d in positive time", replayed, rclock.Now(), batches*size)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := CrashFaults("meteor", 1, batches); err == nil {
		t.Fatal("unknown crash kind accepted")
	}
}

// TestRunBatched checks the gang-batched loop's pricing against the classic
// per-root runner on the same roots: the same edges are traversed, every
// query pays an equal share of its batch, and the shares add up.
func TestRunBatched(t *testing.T) {
	const lanes, queries = 4, 10
	p := smallParams(core.ScenarioPCIeFlash)
	p.Roots = queries
	src := edgelist.ListSource{List: smallList(t, p)}
	sys, err := core.Build(src, p.BFS.WithDefaults().Topology, p.Scenario, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	classic, err := RunOnSystem(sys, src, p)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]int64, queries)
	for i, rr := range classic.PerRoot {
		roots[i] = rr.Root
	}
	res, err := RunBatched(sys, src, p.BFS, lanes, roots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != queries || res.Validated != queries || len(res.Batches) != 3 || res.Batches[2].Size != 2 {
		t.Fatalf("%d queries, %d validated, batches %+v", res.Queries, res.Validated, res.Batches)
	}
	var seconds, invSum float64
	var traversed int64
	q := 0
	for _, b := range res.Batches {
		seconds += b.Time.Seconds()
		if share := b.Amortized() * float64(b.Size); math.Abs(share-b.Time.Seconds()) > 1e-12*share {
			t.Fatalf("amortized shares sum to %g, batch took %g", share, b.Time.Seconds())
		}
		for i := 0; i < b.Size; i++ {
			traversed += classic.PerRoot[q].Traversed
			invSum += b.Amortized() / float64(classic.PerRoot[q].Traversed)
			q++
		}
	}
	if res.Seconds != seconds || res.Traversed != traversed {
		t.Fatalf("totals %g s / %d edges, batches and classic runner say %g s / %d", res.Seconds, res.Traversed, seconds, traversed)
	}
	if want := queries / invSum; math.Abs(res.HarmonicTEPS-want) > 1e-9*want {
		t.Fatalf("harmonic TEPS %g, want %g", res.HarmonicTEPS, want)
	}
	// Unvalidated queries are priced off the degrees to the same total.
	partial, err := RunBatched(sys, src, p.BFS, lanes, roots, 3)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Validated != 3 || partial.Traversed != traversed {
		t.Fatalf("validating 3 queries: %d validated, %d edges (want %d)", partial.Validated, partial.Traversed, traversed)
	}
}

// TestRunCluster checks the per-root cluster loop's reductions on both
// layouts: the per-phase sums add up to the total traffic and only the
// first validateRoots roots are vetted.
func TestRunCluster(t *testing.T) {
	p := smallParams(core.ScenarioDRAMOnly)
	list := smallList(t, p)
	src := edgelist.ListSource{List: list}
	roots, degree, err := ListRoots(list, 5, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Machines: 4, Alpha: p.BFS.Alpha, Beta: p.BFS.Beta}
	oneD, err := cluster.Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer oneD.Close()
	grid, err := cluster.BuildGrid(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	for name, run := range map[string]func(int64) (*cluster.Result, error){"1d": oneD.Run, "2d": grid.Run} {
		tot, err := RunCluster(run, roots, degree, 2,
			func(root int64, res *cluster.Result) error {
				_, err := validate.Run(res.Tree, root, src)
				return err
			})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tot.Validated != 2 || tot.Degraded != 0 || len(tot.TEPS) != len(roots) {
			t.Fatalf("%s: %d validated, %d degraded, %d TEPS samples", name, tot.Validated, tot.Degraded, len(tot.TEPS))
		}
		if tot.CommBytes == 0 || tot.Comm.Total() != tot.CommBytes {
			t.Fatalf("%s: phase sums %d != total traffic %d", name, tot.Comm.Total(), tot.CommBytes)
		}
	}
	boom := errors.New("boom")
	if _, err := RunCluster(grid.Run, roots, degree, 0,
		func(int64, *cluster.Result) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("check failure not reported: %v", err)
	}
}

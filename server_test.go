package semibfs

import (
	"errors"
	"reflect"
	"testing"

	"semibfs/internal/rng"
	"semibfs/internal/validate"
)

func serverTestSystem(t *testing.T, scale int, seed uint64) (*System, []int64) {
	t.Helper()
	edges := poolTestEdges(t, scale, seed)
	sys, err := NewSystem(edges, Options{
		Placement: PlacePCIeFlash,
		NUMANodes: 2, CoresPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	var roots []int64
	for v := int64(0); v < edges.NumVertices() && len(roots) < 32; v++ {
		if sys.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	if len(roots) < 8 {
		t.Fatalf("graph too sparse: %d usable roots", len(roots))
	}
	return sys, roots
}

func checkConservation(t *testing.T, srv *Server, outcomes []ServedQuery) {
	t.Helper()
	st := srv.Stats()
	if int64(len(outcomes)) != st.Submitted {
		t.Fatalf("%d outcomes for %d submissions", len(outcomes), st.Submitted)
	}
	seen := map[int]bool{}
	var byOutcome [5]int64
	for _, o := range outcomes {
		if seen[o.ID] {
			t.Fatalf("query %d resolved twice", o.ID)
		}
		seen[o.ID] = true
		byOutcome[o.Outcome]++
	}
	want := [5]int64{st.Served, st.Shed, st.Expired, st.Cancelled, st.Failed}
	if byOutcome != want {
		t.Fatalf("outcome tallies %v, stats report %v (served/shed/expired/cancelled/failed)",
			byOutcome, want)
	}
}

// TestServerContinuousBatchingServesAll pushes an open-loop trace through an
// unbounded server and checks every query is served with a correct tree:
// late arrivals join in-flight sweeps on free lanes, yet each lane's answer
// matches the single-source BFS.
func TestServerContinuousBatchingServesAll(t *testing.T) {
	sys, roots := serverTestSystem(t, 8, 21)
	srv, err := sys.NewServer(ServerConfig{Lanes: 3, KeepTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A burst at t=0 wider than the lane count, then staggered arrivals that
	// land while the first cohort is still in flight.
	var trace []Arrival
	for i := 0; i < 5; i++ {
		trace = append(trace, Arrival{Root: roots[i], At: 0})
	}
	for i := 5; i < 10; i++ {
		trace = append(trace, Arrival{Root: roots[i], At: 0.0005 * float64(i-4)})
	}
	outs, err := srv.ServeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(trace) {
		t.Fatalf("%d outcomes for %d arrivals", len(outs), len(trace))
	}
	for _, o := range outs {
		if o.Outcome != OutcomeServed {
			t.Fatalf("query %d (root %d): outcome %v, want served", o.ID, o.Root, o.Outcome)
		}
		if o.Latency <= 0 || o.Finished < o.Admitted || o.Admitted < o.Arrival {
			t.Fatalf("query %d: inconsistent times arrival=%v admitted=%v finished=%v latency=%v",
				o.ID, o.Arrival, o.Admitted, o.Finished, o.Latency)
		}
		if _, err := validate.Run(o.Parents, o.Root, sys.src); err != nil {
			t.Fatalf("query %d (root %d): %v", o.ID, o.Root, err)
		}
		single, err := sys.BFS(o.Root)
		if err != nil {
			t.Fatal(err)
		}
		if single.Visited != o.Visited || single.TraversedEdges != o.TraversedEdges {
			t.Fatalf("query %d: visited/traversed (%d,%d), single-source (%d,%d)",
				o.ID, o.Visited, o.TraversedEdges, single.Visited, single.TraversedEdges)
		}
	}
	checkConservation(t, srv, outs)
	st := srv.Stats()
	if st.Served != int64(len(trace)) || st.Shed != 0 || st.Expired != 0 {
		t.Fatalf("stats %+v, want all %d served", st, len(trace))
	}
	if occ := st.Occupancy(srv.Lanes()); occ <= 0 || occ > 1 {
		t.Fatalf("occupancy %v outside (0,1]", occ)
	}
	if st.Latency.Count != int64(len(trace)) || st.Latency.P99() <= 0 {
		t.Fatalf("latency histogram %v, want %d samples", st.Latency.String(), len(trace))
	}
}

// TestServerSheddingDeterministic replays one overload trace — burst
// arrivals, mixed priorities, tight deadlines, a bounded queue — on two
// identically built servers. The virtual clock makes admission, shedding,
// and expiry a pure function of the trace: every outcome, time, and latency
// must be bit-identical.
func TestServerSheddingDeterministic(t *testing.T) {
	var baseline []ServedQuery
	for run := range 2 {
		sys, roots := serverTestSystem(t, 8, 33)
		srv, err := sys.NewServer(ServerConfig{
			Lanes:           2,
			QueueCap:        3,
			Policy:          ShedRejectLowestPriority,
			DefaultDeadline: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two simultaneous bursts: the first overflows queue+lanes at t=0,
		// the second lands while the survivors are still in flight.
		var trace []Arrival
		for i := 0; i < 16; i++ {
			at := 0.0
			if i >= 10 {
				at = 1e-6
			}
			trace = append(trace, Arrival{
				Root:     roots[i%len(roots)],
				At:       at,
				Priority: i % 3,
				Deadline: 0.01 * float64(1+i%4),
			})
		}
		outs, err := srv.ServeTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, srv, outs)
		st := srv.Stats()
		if st.Shed == 0 {
			t.Fatalf("run %d: overload trace shed nothing (queue cap 3)", run)
		}
		if run == 0 {
			baseline = outs
		} else if !reflect.DeepEqual(outs, baseline) {
			t.Fatalf("run %d: outcomes diverge from run 0", run)
		}
		srv.Close()
	}
}

// TestServerDeadlineExpiryMidBatch admits a query whose deadline is shorter
// than a single sweep alongside an undeadlined one: the first must be
// cancelled between sweeps with its lane reclaimed and scrubbed, the second
// must finish with a correct tree, and a later arrival must reuse the
// reclaimed lane.
func TestServerDeadlineExpiryMidBatch(t *testing.T) {
	sys, roots := serverTestSystem(t, 8, 5)
	srv, err := sys.NewServer(ServerConfig{Lanes: 2, KeepTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	trace := []Arrival{
		{Root: roots[0], At: 0, Deadline: 1e-9}, // expires during sweep 1
		{Root: roots[1], At: 0},
		{Root: roots[2], At: 0.01},
	}
	outs, err := srv.ServeTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, srv, outs)
	byRoot := map[int64]ServedQuery{}
	for _, o := range outs {
		byRoot[o.Root] = o
	}
	exp := byRoot[roots[0]]
	if exp.Outcome != OutcomeExpired {
		t.Fatalf("tight-deadline query: outcome %v, want expired", exp.Outcome)
	}
	if exp.Levels < 1 || exp.Lane < 0 {
		t.Fatalf("tight-deadline query expired before admission (levels=%d lane=%d); want mid-flight",
			exp.Levels, exp.Lane)
	}
	for _, root := range roots[1:3] {
		o := byRoot[root]
		if o.Outcome != OutcomeServed {
			t.Fatalf("root %d: outcome %v, want served", root, o.Outcome)
		}
		if _, err := validate.Run(o.Parents, root, sys.src); err != nil {
			t.Fatalf("root %d after lane reclamation: %v", root, err)
		}
	}
	// The reclaimed lane is reusable: the late arrival rode a lane that the
	// expired query may have dirtied.
	if st := srv.Stats(); st.Expired != 1 || st.Served != 2 {
		t.Fatalf("stats %+v, want 1 expired / 2 served", st)
	}
}

// TestServerBackpressureBoundsWait overloads a 2-lane server with a burst
// far beyond capacity, once with a bounded queue and once without. The
// bounded server must shed and keep its admitted queries' queue-wait flat;
// the unbounded server must shed nothing and pay an arbitrarily deep queue.
func TestServerBackpressureBoundsWait(t *testing.T) {
	sys, roots := serverTestSystem(t, 8, 9)
	// One simultaneous 24-query burst onto 2 lanes: 12x over capacity.
	var trace []Arrival
	for i := 0; i < 24; i++ {
		trace = append(trace, Arrival{Root: roots[i%len(roots)], At: 0})
	}
	run := func(queueCap int) *ServerStats {
		srv, err := sys.NewServer(ServerConfig{
			Lanes: 2, QueueCap: queueCap, Policy: ShedRejectNewest,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		outs, err := srv.ServeTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, srv, outs)
		st := srv.Stats()
		return &st
	}
	bounded := run(2)
	unbounded := run(0)
	if bounded.Shed == 0 {
		t.Fatal("bounded queue shed nothing under a 12x burst")
	}
	if bounded.MaxQueueDepth > 2 {
		t.Fatalf("bounded queue reached depth %d past its cap of 2", bounded.MaxQueueDepth)
	}
	if unbounded.Shed != 0 || unbounded.Expired != 0 {
		t.Fatalf("unbounded server shed %d / expired %d; must accept everything",
			unbounded.Shed, unbounded.Expired)
	}
	if unbounded.MaxQueueDepth <= bounded.MaxQueueDepth {
		t.Fatalf("unbounded max queue depth %d not beyond bounded %d",
			unbounded.MaxQueueDepth, bounded.MaxQueueDepth)
	}
	// Graceful degradation: shedding keeps the admitted queries' waiting
	// time bounded, while the unbounded queue's tail wait keeps growing.
	if bw, uw := bounded.Wait.P99(), unbounded.Wait.P99(); bw >= uw {
		t.Fatalf("bounded p99 wait %v not below unbounded %v", bw, uw)
	}
}

// TestServerScheduleSubmitCancelClose drives a server from one goroutine
// through a seeded interleaving of submissions at its clock, cancels of
// earlier queries, RunUntil steps and counter reads, then drains and closes
// it. The exactly-once accounting must hold, and the same schedule on a
// fresh system must give bit-identical outcomes.
func TestServerScheduleSubmitCancelClose(t *testing.T) {
	var first []ServedQuery
	for run := range 2 {
		sys, roots := serverTestSystem(t, 7, 17)
		srv, err := sys.NewServer(ServerConfig{
			Lanes: 4, QueueCap: 8, Policy: ShedRejectOldest, DefaultDeadline: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := rng.NewXoroshiro128(17)
		var ids []int
		for len(ids) < 80 {
			switch g.Uint64n(4) {
			case 0, 1:
				i := len(ids)
				id, err := srv.Submit(Arrival{Root: roots[i%len(roots)], At: srv.Now(), Priority: i % 2})
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				ids = append(ids, id)
			case 2:
				if len(ids) > 0 && g.Uint64n(3) == 0 {
					srv.Cancel(ids[g.Uint64n(uint64(len(ids)))])
				}
				srv.Layers()
				srv.Stats()
				srv.QueueDepth()
			case 3:
				if err := srv.RunUntil(srv.Now() + 1e-4*g.Float64()); err != nil {
					t.Fatalf("run: %v", err)
				}
			}
		}
		outs, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, srv.TakeOutcomes()...)
		checkConservation(t, srv, outs)
		if st := srv.Stats(); st.Submitted != 80 || st.Served == 0 || st.Cancelled == 0 {
			t.Fatalf("stats %+v, want 80 submissions with some served and some cancelled", st)
		}
		if _, err := srv.Submit(Arrival{Root: roots[0], At: srv.Now()}); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("submit after close: %v, want ErrServerClosed", err)
		}
		if run == 0 {
			first = outs
		} else if !reflect.DeepEqual(outs, first) {
			t.Fatal("the same schedule on a fresh system gave different outcomes")
		}
	}
}

// TestServerRejectsBadInput covers the validation edges of the serving API.
func TestServerRejectsBadInput(t *testing.T) {
	sys, roots := serverTestSystem(t, 7, 3)
	if _, err := sys.NewServer(ServerConfig{Lanes: 0}); err == nil {
		t.Error("zero-lane server accepted")
	}
	if _, err := sys.NewServer(ServerConfig{Lanes: 65}); err == nil {
		t.Error("65-lane server accepted")
	}
	srv, err := sys.NewServer(ServerConfig{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(Arrival{Root: -1}); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := srv.Submit(Arrival{Root: 1 << 40}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := srv.Submit(Arrival{Root: roots[0], At: srv.Now() + 1e-3}); err == nil {
		t.Error("arrival after the server's clock accepted")
	}
	if srv.Cancel(12345) {
		t.Error("cancel of unknown id reported success")
	}
	if _, err := srv.Submit(Arrival{Root: roots[0]}); err != nil {
		t.Fatal(err)
	}
	for s, want := range map[string]ShedPolicy{
		"reject-newest": ShedRejectNewest,
		"oldest":        ShedRejectOldest,
		"priority":      ShedRejectLowestPriority,
	} {
		got, err := ParseShedPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseShedPolicy("bogus"); err == nil {
		t.Error("bogus shed policy accepted")
	}
	for o, want := range map[Outcome]string{
		OutcomeServed: "served", OutcomeShed: "shed", OutcomeExpired: "expired",
		OutcomeCancelled: "cancelled", OutcomeFailed: "failed",
	} {
		if o.String() != want {
			t.Errorf("Outcome %d String = %q, want %q", int(o), o.String(), want)
		}
	}
}

// TestQueryPoolCohortsMatchPackBatches pins the gang-mode server's cohort
// partition to packBatches, the pure (and fuzzed) specification the old
// drain-mode pool executed directly.
func TestQueryPoolCohortsMatchPackBatches(t *testing.T) {
	sys, roots := serverTestSystem(t, 8, 27)
	pool, err := sys.NewQueryPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var queries []Query
	for _, root := range roots[:8] {
		id, err := pool.Submit(root)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, Query{ID: id, Root: root})
	}
	results, stats, err := pool.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := packBatches(queries, pool.Lanes())
	if len(stats) != len(want) {
		t.Fatalf("%d cohorts, want %d batches", len(stats), len(want))
	}
	for bi, b := range want {
		if !reflect.DeepEqual(stats[bi].Roots, rootsOf(b)) {
			t.Fatalf("cohort %d roots %v, want %v", bi, stats[bi].Roots, rootsOf(b))
		}
	}
	for i, qr := range results {
		wantBatch, wantLane := i/pool.Lanes(), i%pool.Lanes()
		if qr.Batch != wantBatch || qr.Lane != wantLane {
			t.Fatalf("result %d rode batch %d lane %d, want %d/%d",
				i, qr.Batch, qr.Lane, wantBatch, wantLane)
		}
	}
}

func rootsOf(qs []Query) []int64 {
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = q.Root
	}
	return out
}

// TestQueryPoolSubmitAfterClose covers the typed sentinel contract.
func TestQueryPoolSubmitAfterClose(t *testing.T) {
	edges := poolTestEdges(t, 7, 3)
	pool, err := NewQueryPool(edges, 2, Options{NUMANodes: 2, CoresPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Submit(0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: %v, want ErrPoolClosed", err)
	}
}

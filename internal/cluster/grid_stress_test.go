package cluster

import (
	"sync/atomic"
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// stressStore counts Close calls on a machine's media store and can kill
// its reads permanently after a budget — the unrescuable-node fault the
// mirror cannot fail over from (every replica dies).
type stressStore struct {
	nvm.Storage
	closes   atomic.Int32
	reads    atomic.Int64
	dieAfter int64 // 0 = immortal
}

func (s *stressStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if n := s.reads.Add(1); s.dieAfter > 0 && n > s.dieAfter {
		return &nvm.DeadError{Store: "stress", Reads: n}
	}
	return s.Storage.ReadAt(clock, p, off)
}

func (s *stressStore) Close() error {
	s.closes.Add(1)
	return s.Storage.Close()
}

// TestGridStressFailoverAndNodeDeath drives a compressed, mirrored,
// checksummed grid through two failures at once — machine 0's primary
// replica dies early (mirror failover rescues it silently) and every store
// of machine 2 dies mid-level (unrescuable, so the grid degrades) — and
// asserts the tree still matches the DRAM-resident grid and every media
// store is closed exactly once.
func TestGridStressFailoverAndNodeDeath(t *testing.T) {
	list := testList(t, 9, 41)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)

	ref, err := BuildGrid(src, Config{Machines: 4, Alpha: 4, Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}

	var created []*stressStore
	g, err := BuildGrid(src, Config{
		Machines: 4, Alpha: 4, Beta: 40,
		ForwardOnNVM: true, Compress: true, Checksums: true,
		Replicas: 2,
		// Machine 0: primary replica dies after a handful of reads; the
		// second replica takes over below the error surface.
		Faults:       faults.Config{Seed: 5, DieAfterReads: 5, DieReplica: 1},
		FaultMachine: 1,
		WrapBase: func(machine int, name string, inner nvm.Storage) nvm.Storage {
			st := &stressStore{Storage: inner}
			if machine == 2 {
				st.dieAfter = 50 // both replicas: node death, not replica death
			}
			created = append(created, st)
			return st
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(root)
	if err != nil {
		t.Fatalf("node death aborted the run: %v", err)
	}
	if !res.Degraded {
		t.Fatal("unrescuable node death did not degrade the run")
	}
	dead := map[int]bool{}
	for _, k := range res.DeadMachines {
		dead[k] = true
	}
	if !dead[2] {
		t.Fatalf("dead machines %v, want machine 2", res.DeadMachines)
	}
	if dead[0] {
		t.Fatalf("machine 0 reported dead (%v); its mirror should have rescued it", res.DeadMachines)
	}
	for v := range res.Tree {
		if res.Tree[v] != refRes.Tree[v] {
			t.Fatalf("tree[%d] = %d, want %d (DRAM grid)", v, res.Tree[v], refRes.Tree[v])
		}
	}

	// A second traversal over the same (permanently damaged) grid must
	// degrade again and stay correct.
	res2, err := g.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Degraded {
		t.Fatal("second run did not degrade on the dead node")
	}
	for v := range res2.Tree {
		if res2.Tree[v] != refRes.Tree[v] {
			t.Fatalf("run 2: tree[%d] = %d, want %d", v, res2.Tree[v], refRes.Tree[v])
		}
	}

	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(created) == 0 {
		t.Fatal("WrapBase never saw a store")
	}
	for i, st := range created {
		if n := st.closes.Load(); n != 1 {
			t.Fatalf("store %d closed %d times, want exactly 1", i, n)
		}
	}
}

package graph500

import (
	"errors"
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/dyn"
	"semibfs/internal/faults"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// CrashFaults maps a crash kind of the durable-update protocol to the fault
// schedule that produces it on a stream of the given number of batches:
// "wal" tears the log append of the middle batch, "compaction" tears the
// manifest's generation flip, "none" injects nothing.
func CrashFaults(kind string, seed uint64, batches int) (faults.Config, error) {
	switch kind {
	case "none":
		return faults.Config{}, nil
	case "wal":
		return faults.Config{Seed: seed, CutAtWrite: int64(batches/2 + 1), TornWrite: true, CutStores: "dyn-wal"}, nil
	case "compaction":
		// The manifest's only write is compaction's flip.
		return faults.Config{Seed: seed, CutAtWrite: 1, TornWrite: true, CutStores: "dyn-manifest"}, nil
	}
	return faults.Config{}, fmt.Errorf("unknown crash kind %q (want none, wal, or compaction)", kind)
}

// TreeRepair maintains one root's BFS parent tree across a stream of
// durable update batches: each batch is logged and applied, then the tree
// is repaired incrementally instead of recomputed. The totals are what the
// protocol reports against Rebuild, the cost of one fresh traversal.
type TreeRepair struct {
	ds    *core.DynamicSystem
	clock *vtime.Clock
	cfg   bfs.Config

	// Tree is the maintained tree; it only ever absorbs durable batches,
	// so it stays exact across a recovery.
	Tree    *bfs.TreeState
	Rebuild vtime.Duration
	// UpdateTime covers log append plus overlay application, RepairTime
	// and RepairEdges the incremental repairs, over Batches batches.
	UpdateTime, RepairTime vtime.Duration
	RepairEdges            int64
	Batches                int
}

// NewTreeRepair seeds the maintained tree with a fresh top-down traversal
// from root (the canonical min-parent tree RepairTree reproduces). Updates
// and repairs are charged to clock.
func NewTreeRepair(ds *core.DynamicSystem, clock *vtime.Clock, cfg bfs.Config, root int64) (*TreeRepair, error) {
	cfg.Mode = bfs.ModeTopDownOnly
	t := &TreeRepair{ds: ds, clock: clock, cfg: cfg}
	res, err := t.rebuild(root)
	if err != nil {
		return nil, err
	}
	t.Rebuild = res.Time
	t.Tree = bfs.NewTreeState(root, res.Tree)
	return t, nil
}

func (t *TreeRepair) rebuild(root int64) (*bfs.Result, error) {
	runner, err := t.ds.NewRunner(t.cfg)
	if err != nil {
		return nil, err
	}
	return runner.Run(root)
}

// Step draws the next size updates from us, makes them durable and repairs
// the tree, returning the repair's virtual time and scanned edges. When a
// power cut tears the append the batch never became durable: the stream is
// rolled back and the error (nvm.ErrPowerCut) returned for the caller to
// stop or Recover.
func (t *TreeRepair) Step(us *dyn.UpdateStream, size int) (vtime.Duration, int64, error) {
	batch := us.Batch(size)
	start := t.clock.Now()
	if _, err := t.ds.Graph.Apply(t.clock, batch); err != nil {
		if errors.Is(err, nvm.ErrPowerCut) {
			us.Unapply(batch)
		}
		return 0, 0, err
	}
	t.UpdateTime += t.clock.Now() - start
	eu := make([]bfs.EdgeUpdate, len(batch))
	for i, up := range batch {
		eu[i] = bfs.EdgeUpdate{U: up.U, V: up.V, Del: up.Del}
	}
	start = t.clock.Now()
	st, err := bfs.RepairTree(t.Tree, eu, t.ds.Backward(), t.ds.Part, t.clock)
	if err != nil {
		return 0, 0, err
	}
	repair := t.clock.Now() - start
	t.RepairTime += repair
	t.RepairEdges += st.EdgesScanned
	t.Batches++
	return repair, st.EdgesScanned, nil
}

// Recover reboots the system on its surviving media with fault injection
// off. It returns the fresh clock the recovery ran on — its reading is the
// recovery's virtual cost — and the number of updates replayed from the log.
func (t *TreeRepair) Recover() (*vtime.Clock, int64, error) {
	clock := vtime.NewClock(0)
	if err := t.ds.Recover(clock, faults.Config{}); err != nil {
		return nil, 0, err
	}
	return clock, t.ds.Graph.Stats().Applied, nil
}

// Verify checks the maintained tree bit-identical against a fresh rebuild
// over the graph as it now stands.
func (t *TreeRepair) Verify() error {
	fresh, err := t.rebuild(t.Tree.Root)
	if err != nil {
		return err
	}
	for v, want := range fresh.Tree {
		if t.Tree.Parent[v] != want {
			return fmt.Errorf("repair equivalence FAILED: parent[%d] = %d, fresh rebuild says %d",
				v, t.Tree.Parent[v], want)
		}
	}
	return nil
}

package core

import (
	"fmt"

	"semibfs/internal/bfs"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// DynamicSystem is a scenario-placed dynamic graph: the same device
// array, placement, and I/O stack a static Build would give the
// scenario, but with WAL-durable updates, crash-consistent compaction,
// and recovery over a reopenable media pool.
type DynamicSystem struct {
	Graph *dyn.Graph
	Media *dyn.Media
	Part  *numa.Partition
	// Devices is the per-replica device array (len 1 without mirroring).
	Devices []*nvm.Device

	opts dyn.Options
}

// DynamicOptions maps the scenario's placement and I/O knobs onto the
// dynamic graph layer. The scenario must offload the forward graph to a
// device — a dynamic graph's durability lives on its stores.
func (s Scenario) DynamicOptions() (dyn.Options, error) {
	if !s.HasNVM() || !s.ForwardOnNVM {
		return dyn.Options{}, fmt.Errorf("core: scenario %q cannot host a dynamic graph: durable updates need the forward graph on a device", s.Name)
	}
	return dyn.Options{Forward: s.forwardOptions(), Backward: s.backwardOptions()}, nil
}

// BuildDynamic constructs a dynamic graph from src placed per sc. The
// scenario's fault configuration arms the first boot's stores (zero
// injects nothing); later boots choose their own via Recover.
func BuildDynamic(src edgelist.Source, topo numa.Topology, sc Scenario, clock *vtime.Clock) (*DynamicSystem, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	opts, err := sc.DynamicOptions()
	if err != nil {
		return nil, err
	}
	devs, device := nvm.NewReplicaDevices(sc.Device.WithLatencyScale(sc.LatencyScale), sc.Replicas, 0)
	ds := &DynamicSystem{
		Media:   dyn.NewMediaFunc(device),
		Part:    numa.NewPartition(topo, int(src.NumVertices())),
		Devices: devs,
		opts:    opts,
	}
	g, err := dyn.Build(src, ds.Part, ds.factory(sc.Faults), clock, opts)
	if err != nil {
		return nil, err
	}
	ds.Graph = g
	return ds, nil
}

// factory resolves stores against the media pool, behind a fresh fault
// layer when fcfg injects anything — one layer per boot, so a power cut
// freezes the media and the next boot starts uncut.
func (ds *DynamicSystem) factory(fcfg faults.Config) semiext.StoreFactory {
	mk := ds.Media.Factory()
	if fcfg.Enabled() {
		mk = faults.NewFactory(mk, fcfg).Make
	}
	return mk
}

// Recover reboots the dynamic graph over the surviving media: the old
// handles are discarded (a crashed boot's stacks are already dead) and
// the durable state is reopened, replayed, and reinstalled. fcfg arms
// the new boot's stores.
func (ds *DynamicSystem) Recover(clock *vtime.Clock, fcfg faults.Config) error {
	g, err := dyn.Recover(ds.Part, ds.factory(fcfg), clock, ds.opts)
	if err != nil {
		return err
	}
	ds.Graph = g
	return nil
}

// NewRunner returns a BFS runner over the dynamic graph's merged
// (overlay + CSR) adjacency views.
func (ds *DynamicSystem) NewRunner(cfg bfs.Config) (*bfs.Runner, error) {
	return bfs.NewRunner(bfs.NVMForward{SF: ds.Graph.Forward()},
		bfs.HybridBackwardAccess{HB: ds.Graph.Backward()}, ds.Part, cfg)
}

// Backward returns the merged backward access for incremental repair.
func (ds *DynamicSystem) Backward() bfs.BackwardAccess {
	return bfs.HybridBackwardAccess{HB: ds.Graph.Backward()}
}

// Close releases the dynamic graph's stores and logs.
func (ds *DynamicSystem) Close() error {
	if ds.Graph == nil {
		return nil
	}
	return ds.Graph.Close()
}

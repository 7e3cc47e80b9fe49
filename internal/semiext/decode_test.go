package semiext

import (
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// TestDecodeChargeAfterPrimaryDies: a graph node resolves its store's
// device once, when it is built, and a mirrored stack's Device follows its
// first live replica. After the primary replica dies under a first pass
// over every compressed list, a second pass priced from the dead primary's
// device must charge exactly the virtual time it charges priced from the
// live replica's, which is what a lookup per chunk would find. The pass
// does pay decode: halving the profile's decode bandwidth slows it.
func TestDecodeChargeAfterPrimaryDies(t *testing.T) {
	fg, bg, part := buildGraphs(t, 10, numa.Topology{Nodes: 2, CoresPerNode: 2})
	n := int64(part.N)
	slow := nvm.ProfileIoDrive2
	slow.DecodeBandwidth = nvm.DefaultDecodeBandwidth / 2
	all := func(nbs []int64) (int, bool) { return len(nbs), false }
	// A graph under test: a pass over every list, its node 0 device, and
	// a re-resolution of every node's device.
	type graph struct {
		pass    func(clock *vtime.Clock) error
		dev     func() *nvm.Device
		resolve func()
	}
	cases := []struct {
		name  string
		build func(t *testing.T, mk StoreFactory) graph
	}{
		{"backward tails", func(t *testing.T, mk StoreFactory) graph {
			hb, err := OffloadBackward(bg, mk, nil, BackwardOptions{KeepEdges: 1, Compress: true, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { hb.Close() })
			return graph{func(clock *vtime.Clock) error {
				sc := NewBackwardScanner(hb, clock)
				for v := range n {
					if _, _, err := sc.Scan(part.NodeOf(int(v)), v, all); err != nil {
						return err
					}
				}
				return nil
			}, func() *nvm.Device { return hb.PerNode[0].tailDev }, func() {
				for _, node := range hb.PerNode {
					node.tailDev = node.TailStore.Device()
				}
			}}
		}},
		{"forward lists", func(t *testing.T, mk StoreFactory) graph {
			sf, err := OffloadForward(fg, mk, nil, ForwardOptions{Compress: true, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sf.Close() })
			return graph{func(clock *vtime.Clock) error {
				r := NewForwardReader(sf, clock)
				for k := range sf.PerNode {
					for v := range n {
						if _, err := r.Neighbors(k, v); err != nil {
							return err
						}
					}
				}
				return nil
			}, func() *nvm.Device { return sf.PerNode[0].valueDev }, func() {
				for _, node := range sf.PerNode {
					node.valueDev = node.ValueStore.Device()
				}
			}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var second [3]vtime.Duration
			for i, resolve := range []bool{false, true, true} {
				prof := nvm.ProfileIoDrive2
				if i == 2 {
					prof = slow
				}
				// Every replica store gets a device of its own, as a
				// device array's do.
				perStore := func(_ string, chunk int) (nvm.Storage, error) {
					return nvm.NewMemStore(nvm.NewDevice(prof, 0), chunk), nil
				}
				f := faults.NewFactory(perStore, faults.Config{DieAfterReads: 1, DieReplica: 1})
				g := c.build(t, f.Make)
				clock := vtime.NewClock(0)
				primary := g.dev()
				if err := g.pass(clock); err != nil {
					t.Fatal(err)
				}
				if resolve {
					if g.resolve(); g.dev() == primary {
						t.Fatal("the mirror's device is still its primary's after the first pass")
					}
				}
				start := clock.Now()
				if err := g.pass(clock); err != nil {
					t.Fatal(err)
				}
				second[i] = clock.Now() - start
			}
			if second[0] != second[1] {
				t.Errorf("second pass: %d ns priced from the dead primary, %d ns from the live replica", second[0], second[1])
			}
			if second[2] <= second[1] {
				t.Errorf("second pass: %d ns at half the decode bandwidth, %d ns at full", second[2], second[1])
			}
		})
	}
}

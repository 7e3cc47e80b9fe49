package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
)

// The serving pins: seeded arrival traces played through ServeTrace over a
// SCALE-8 graph. Each case hashes every field of every outcome (trees
// included), the final Stats() and the virtual time of every BetweenSweeps
// call, so a change to where sweeps start, when arrivals are ingested, who
// is shed, when a deadline bites or how a device death lands moves a pin.

type servePin struct {
	now      int64 // final virtual time, ns
	steps    int64
	outcomes uint64 // every field of every outcome, in resolution order
	stats    uint64 // Stats()
	hooks    uint64 // the time of every BetweenSweeps call
}

type servePinCase struct {
	name  string
	sc    core.Scenario
	cfg   ServerConfig
	trace func(roots []int64) []Arrival
	want  servePin
	// check asserts that the case reaches the behaviour it is named for.
	check func(t *testing.T, r pinRun)
}

// pinRun is what a case's check looks at.
type pinRun struct {
	st     ServerStats
	outs   []ServedQuery
	hooks  []float64
	layers nvm.StackStats
}

// pinTrace draws n arrivals from a seeded stream: exponential gaps of
// the given mean, priorities in [0,prios), and relative deadlines drawn
// from dls (0 = the server default).
func pinTrace(seed uint64, roots []int64, n int, gap float64, prios int, dls []float64) []Arrival {
	g := rng.NewXoroshiro128(seed)
	trace := make([]Arrival, n)
	at := 0.0
	for i := range trace {
		at += -math.Log(1-g.Float64()) * gap
		trace[i] = Arrival{
			Root:     roots[g.Uint64n(uint64(len(roots)))],
			At:       at,
			Priority: int(g.Uint64n(uint64(prios))),
			Deadline: dls[g.Uint64n(uint64(len(dls)))],
		}
	}
	return trace
}

func shedCase(p Policy, want servePin) servePinCase {
	return servePinCase{
		name: "shed-" + p.String(),
		sc:   core.ScenarioPCIeFlash,
		cfg:  ServerConfig{Lanes: 2, QueueCap: 3, Policy: p, DefaultDeadline: 0.02},
		trace: func(roots []int64) []Arrival {
			return pinTrace(uint64(11+p), roots, 40, 2e-5, 3, []float64{0, 0.005, 0.05})
		},
		want: want,
		check: func(t *testing.T, r pinRun) {
			if r.st.Shed == 0 {
				t.Error("queue cap 3 under a burst shed nothing")
			}
		},
	}
}

var servePinCases = []servePinCase{
	{
		name: "idle-gaps",
		sc:   core.ScenarioPCIeFlash,
		cfg:  ServerConfig{Lanes: 2},
		trace: func(roots []int64) []Arrival {
			// Three small bursts far apart: the server idles to each.
			var trace []Arrival
			for b := range 3 {
				for i := range 3 {
					trace = append(trace, Arrival{Root: roots[3*b+i], At: 0.5 * float64(b)})
				}
			}
			return trace
		},
		want: servePin{1000422451, 25, 0x3264ff1a7a6e02a2, 0xc0c19cf92d65c3fc, 0x82e12466735a59f7},
		check: func(t *testing.T, r pinRun) {
			idled := 0
			for _, h := range r.hooks {
				if h == 0.5 || h == 1 {
					idled++
				}
			}
			if idled != 2 {
				t.Errorf("BetweenSweeps at %v: want a call at each idle jump (0.5 s, 1 s)", r.hooks)
			}
		},
	},
	{
		name: "out-of-order-ties",
		sc:   core.ScenarioPCIeFlash,
		cfg:  ServerConfig{Lanes: 3},
		trace: func(roots []int64) []Arrival {
			// Given backwards, with three arrivals sharing each instant:
			// the server sorts by At and keeps trace order among ties.
			var trace []Arrival
			for i := 11; i >= 0; i-- {
				trace = append(trace, Arrival{Root: roots[i], At: 2e-4 * float64(i/3), Priority: i % 2})
			}
			return trace
		},
		want: servePin{5088248, 19, 0x3f323031bcf666c7, 0xfa2555329e4e1763, 0x3538b427dcd11ad5},
		check: func(t *testing.T, r pinRun) {
			arrival := map[int]float64{}
			for _, o := range r.outs {
				arrival[o.ID] = o.Arrival
			}
			for id := 1; id < len(arrival); id++ {
				if arrival[id] < arrival[id-1] {
					t.Errorf("query %d arrived at %v, before query %d at %v: IDs must follow arrival",
						id, arrival[id], id-1, arrival[id-1])
				}
			}
		},
	},
	shedCase(RejectNewest, servePin{1968368, 22, 0x57b9a134e054e4c, 0xde17ec1f7865e06f, 0xad226c85b4c9f16a}),
	shedCase(RejectOldest, servePin{1626426, 14, 0x87e691119532b0cf, 0x8fb9d3cf622bcdd3, 0xd5b140fea57326ac}),
	shedCase(RejectLowestPriority, servePin{8650807, 11, 0xfe2bdb6de3400050, 0x1142f8e0cc883e31, 0x6b5bf5c5671259e7}),
	{
		name: "deadlines",
		sc:   core.ScenarioPCIeFlash,
		cfg:  ServerConfig{Lanes: 2},
		trace: func(roots []int64) []Arrival {
			return pinTrace(17, roots, 24, 1e-4, 1, []float64{0, 1e-9, 5e-5, 2e-4})
		},
		want: servePin{6966505, 10, 0xe3a8f87e7fe3999e, 0x4244fd060f575bbe, 0x15428f95d7e1217},
		check: func(t *testing.T, r pinRun) {
			for _, o := range r.outs {
				if o.Outcome == OutcomeExpired && o.Levels > 0 {
					return
				}
			}
			t.Error("no query expired mid-flight")
		},
	},
	{
		name: "transient-full-stack",
		sc: func() core.Scenario {
			sc := core.ScenarioSSD.WithIO(true, 4, 8).WithCache(32<<10, 2).WithReplicas(2, 2e4)
			sc.Checksums = true
			sc.Faults = faults.Config{Seed: 34, TransientRate: 0.01}
			return sc
		}(),
		cfg: ServerConfig{Lanes: 4, QueueCap: 8, Policy: RejectOldest, DefaultDeadline: 0.2},
		trace: func(roots []int64) []Arrival {
			return pinTrace(34, roots, 30, 5e-4, 2, []float64{0})
		},
		want: servePin{17722247, 138, 0xf44895ac52bdd45a, 0x8f53fe16e4ee7c12, 0x1a12c74ba14c013d},
		check: func(t *testing.T, r pinRun) {
			if r.layers.Get("faults", "transient_injected") == 0 || r.layers.Get("mirror", "scrubbed_blocks") == 0 ||
				r.layers.Get("cache", "hits") == 0 {
				t.Errorf("the stack never faulted, scrubbed or hit its cache: %v", r.layers)
			}
		},
	},
	{
		name: "device-death-degrades",
		sc: func() core.Scenario {
			sc := core.ScenarioPCIeFlash
			sc.Faults = faults.Config{Seed: 3, DieAfterReads: 3}
			return sc
		}(),
		cfg: ServerConfig{Lanes: 4},
		trace: func(roots []int64) []Arrival {
			return pinTrace(23, roots, 16, 2e-4, 1, []float64{0})
		},
		want: servePin{3099200, 62, 0x8f1f42cab7558151, 0x44fbe8c011974b1e, 0x811f5340e1189866},
		check: func(t *testing.T, r pinRun) {
			if r.st.DegradedEvents == 0 {
				t.Error("the forward device's death degraded nothing")
			}
			if r.st.Served != int64(len(r.outs)) {
				t.Errorf("%d of %d queries served; the DRAM backward graph must rescue all", r.st.Served, len(r.outs))
			}
		},
	},
}

func runServePin(t *testing.T, c servePinCase) (servePin, pinRun) {
	t.Helper()
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	list, err := generator.Generate(generator.Config{Scale: 8, EdgeFactor: 8, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(edgelist.ListSource{List: list}, topo, c.sc, core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	br, err := sys.NewBatchRunner(c.cfg.Lanes, bfs.Config{Topology: topo, Alpha: 16, Beta: 160})
	if err != nil {
		t.Fatal(err)
	}
	var roots []int64
	for v := int64(0); len(roots) < 32; v++ {
		if sys.Backward.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	var hooks []float64
	cfg := c.cfg
	cfg.KeepTrees = true
	cfg.BetweenSweeps = func(now float64) error {
		hooks = append(hooks, now)
		return nil
	}
	sv := NewServer(br, sys.Backward.Degree, list.NumVertices, cfg)
	outs, err := sv.ServeTrace(c.trace(roots))
	if err != nil {
		t.Fatal(err)
	}
	st := sv.Stats()
	sum := func(v any) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", v)
		return h.Sum64()
	}
	return servePin{
		now:      int64(sv.sess.Now()),
		steps:    st.Steps,
		outcomes: sum(outs),
		stats:    sum(st),
		hooks:    sum(hooks),
	}, pinRun{st, outs, hooks, sv.Layers()}
}

func TestServeTracePins(t *testing.T) {
	for _, c := range servePinCases {
		t.Run(c.name, func(t *testing.T) {
			got, r := runServePin(t, c)
			c.check(t, r)
			if got != c.want {
				t.Errorf("got  %#v\nwant %#v", got, c.want)
			}
		})
	}
}

package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/edgelist"
	"semibfs/internal/faults"
)

// The virtual-time pins: both layouts, on one seeded SCALE-10 graph, must
// reproduce these exact nanoseconds, switch counts, per-phase wire bytes,
// per-level (direction, claimed, examined, time, comm) sequences and parent
// trees. They were recorded before the 1D and 2D
// run loops were merged; a refactor must leave every constant untouched,
// and a change that means to move virtual time must say so by editing them.

type runPin struct {
	time     int64
	switches int
	comm     CommStats
	levels   uint64
	tree     uint64
}

func (p runPin) String() string {
	c := p.comm
	return fmt.Sprintf("{%d, %d, CommStats{%d, %d, %d, %d, %d}, %#x, %#x}", p.time, p.switches,
		c.TDFrontier, c.TDCandidate, c.BUAllgather, c.BURing, c.Control, p.levels, p.tree)
}

func pinOf(res *Result) runPin {
	lh, th := fnv.New64a(), fnv.New64a()
	for _, l := range res.Levels {
		fmt.Fprintf(lh, "%d,%d,%d,%d,%+v;", l.Direction, l.Claimed, l.Examined, int64(l.Time), l.Comm)
	}
	for _, p := range res.Tree {
		fmt.Fprintf(th, "%d,", p)
	}
	return runPin{int64(res.Time), res.Switches, res.Comm, lh.Sum64(), th.Sum64()}
}

// pinLayouts: rows == 0 is the 1D cluster, otherwise an explicit grid.
var pinLayouts = []struct {
	name       string
	rows, cols int
}{
	{"1d", 0, 4}, {"2x2", 2, 2}, {"2x3", 2, 3}, {"1x4", 1, 4}, {"4x1", 4, 1},
}

var pinStorage = []struct {
	name string
	set  func(*Config)
}{
	{"dram", func(*Config) {}},
	{"raw", func(c *Config) { c.ForwardOnNVM = true }},
	{"stack", func(c *Config) {
		c.ForwardOnNVM, c.Compress, c.Checksums = true, true, true
		c.Replicas, c.CacheBytes = 2, 1<<20
	}},
}

// pinned holds, per "layout/storage" cell, the pins of three consecutive
// runs (roots pinRoots) on one reused cluster. "2x2/degraded" is the stack
// cell without its cache and with every store of machine 2 dying after 20
// reads: no healthy replica, so the run goes through rescue-and-retry.
var pinned = map[string][3]runPin{
	"1d/dram": {
		{132842, 2, CommStats{0, 12158, 12942, 0, 320}, 0x9dd740be7433b33e, 0xe14c1a7de8907949},
		{132295, 2, CommStats{0, 4688, 9432, 0, 320}, 0x38f9b0cdd61d64f2, 0x2bb986c777fea763},
		{126546, 1, CommStats{0, 2184, 5064, 0, 320}, 0x91f6efa20199e530, 0x3f76994205515523},
	},
	"1d/raw": {
		{1574101, 2, CommStats{0, 12158, 12942, 0, 320}, 0xfb259a4fd26908a3, 0xe14c1a7de8907949},
		{1298838, 2, CommStats{0, 4688, 9432, 0, 320}, 0xc5b39e275b308870, 0x2bb986c777fea763},
		{401266, 1, CommStats{0, 2184, 5064, 0, 320}, 0x30af79eeee0fbba1, 0x3f76994205515523},
	},
	"1d/stack": {
		{484161, 2, CommStats{0, 1761, 2052, 0, 320}, 0xc3bbc5da78bc8a90, 0xe14c1a7de8907949},
		{132245, 2, CommStats{0, 615, 1656, 0, 320}, 0xe9b3d8e11056cd05, 0x2bb986c777fea763},
		{126397, 1, CommStats{0, 287, 1260, 0, 320}, 0x371b069e0704fb7f, 0x3f76994205515523},
	},
	"2x2/dram": {
		{152846, 2, CommStats{264, 6028, 280, 5392, 320}, 0xfe821a875908e8d8, 0xe14c1a7de8907949},
		{152832, 2, CommStats{160, 3178, 280, 8928, 320}, 0x79c1213a92ab2ef1, 0x2bb986c777fea763},
		{158369, 1, CommStats{32, 1572, 420, 12993, 320}, 0x626363ad3aa459f1, 0x3f76994205515523},
	},
	"2x2/raw": {
		{36103081, 2, CommStats{264, 6028, 280, 5392, 320}, 0x953c1efd3838299f, 0xe14c1a7de8907949},
		{45533012, 2, CommStats{160, 3178, 280, 8928, 320}, 0x637f8f6078a396bc, 0x2bb986c777fea763},
		{67815707, 1, CommStats{32, 1572, 420, 12993, 320}, 0x12524d00e948b369, 0x3f76994205515523},
	},
	"2x2/stack": {
		{793552, 2, CommStats{62, 977, 280, 940, 320}, 0x86c34f48623f31d5, 0xe14c1a7de8907949},
		{296020, 2, CommStats{51, 415, 280, 1556, 320}, 0xbea18f190e931dd7, 0x2bb986c777fea763},
		{167877, 1, CommStats{20, 203, 374, 2243, 320}, 0x184da5fff8192a2b, 0x3f76994205515523},
	},
	"2x3/dram": {
		{187398, 2, CommStats{276, 9136, 300, 5896, 720}, 0x57129a7b39f9d709, 0xe14c1a7de8907949},
		{187481, 2, CommStats{172, 4068, 300, 9736, 720}, 0x32e44eb0e6a5412, 0x2bb986c777fea763},
		{197958, 1, CommStats{40, 1944, 450, 14396, 720}, 0xdabe28e2eac700bc, 0x3f76994205515523},
	},
	"2x3/raw": {
		{34903818, 2, CommStats{276, 9136, 300, 5896, 720}, 0x74432f53f08d71be, 0xe14c1a7de8907949},
		{45704290, 2, CommStats{172, 4068, 300, 9736, 720}, 0x1da07bb39261dee8, 0x2bb986c777fea763},
		{65531712, 1, CommStats{40, 1944, 450, 14396, 720}, 0x253da6adcee0efe2, 0x3f76994205515523},
	},
	"2x3/stack": {
		{890956, 2, CommStats{75, 1458, 300, 1023, 720}, 0x8b4c70f09ec12297, 0xe14c1a7de8907949},
		{399001, 2, CommStats{61, 545, 300, 1684, 720}, 0x5db554a433822926, 0x2bb986c777fea763},
		{207784, 1, CommStats{28, 257, 402, 2439, 720}, 0x749412ff21a8a2bb, 0x3f76994205515523},
	},
	"1x4/dram": {
		{148836, 2, CommStats{0, 12158, 0, 5920, 320}, 0x62f64538887a998c, 0xe14c1a7de8907949},
		{149193, 2, CommStats{0, 4688, 0, 10544, 320}, 0xcd3fef83b1cc6c04, 0x2bb986c777fea763},
		{170238, 1, CommStats{0, 2184, 0, 15568, 320}, 0xee13974857e5752f, 0x3f76994205515523},
	},
	"1x4/raw": {
		{63437721, 2, CommStats{0, 12158, 0, 5920, 320}, 0x8b8c82d544da13d8, 0xe14c1a7de8907949},
		{82913688, 2, CommStats{0, 4688, 0, 10544, 320}, 0x82effc97eed512f, 0x2bb986c777fea763},
		{125370500, 1, CommStats{0, 2184, 0, 15568, 320}, 0x9f60ba4f763ada21, 0x3f76994205515523},
	},
	"1x4/stack": {
		{1003741, 2, CommStats{0, 1761, 0, 971, 320}, 0x3caa5e2a507de8dc, 0xe14c1a7de8907949},
		{231633, 2, CommStats{0, 615, 0, 1685, 320}, 0x2f53626b888ba099, 0x2bb986c777fea763},
		{189733, 1, CommStats{0, 287, 0, 2448, 320}, 0xbb803649b46e93ea, 0x3f76994205515523},
	},
	"4x1/dram": {
		{121538, 2, CommStats{792, 0, 840, 0, 320}, 0x5d6c3aea335a79ad, 0xe14c1a7de8907949},
		{121309, 2, CommStats{480, 0, 840, 0, 320}, 0x2c68bc03c1d06a4b, 0x2bb986c777fea763},
		{121427, 1, CommStats{96, 0, 1260, 0, 320}, 0x1ee0a72882eb3370, 0x3f76994205515523},
	},
	"4x1/raw": {
		{22333682, 2, CommStats{792, 0, 840, 0, 320}, 0x290a913c01cdb6f0, 0xe14c1a7de8907949},
		{26228596, 2, CommStats{480, 0, 840, 0, 320}, 0x52b3824afe85e833, 0x2bb986c777fea763},
		{36479376, 1, CommStats{96, 0, 1260, 0, 320}, 0x3e6d09a097ae53c4, 0x3f76994205515523},
	},
	"4x1/stack": {
		{617928, 2, CommStats{186, 0, 840, 0, 320}, 0x27efa95315c0992d, 0xe14c1a7de8907949},
		{125176, 2, CommStats{153, 0, 840, 0, 320}, 0xa7bb5c34b0891a49, 0x2bb986c777fea763},
		{126760, 1, CommStats{60, 0, 1122, 0, 320}, 0x20c8af6959c01f8, 0x3f76994205515523},
	},
	"2x2/degraded": {
		{109696516, 2, CommStats{74, 977, 420, 956, 320}, 0x9290339e1ca2ff34, 0xe14c1a7de8907949},
		{129859342, 2, CommStats{67, 415, 420, 1572, 320}, 0x8a06396a98570871, 0x2bb986c777fea763},
		{157487419, 1, CommStats{20, 203, 514, 2243, 320}, 0x9b63672bfd1625c1, 0x3f76994205515523},
	},
}

func pinRoots(list *edgelist.List) [3]int64 {
	deg := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	var roots [3]int64
	v := int64(0)
	for i := range roots {
		for deg[v] == 0 {
			v++
		}
		roots[i] = v
		v += list.NumVertices / 3
	}
	return roots
}

func TestVirtualTimePins(t *testing.T) {
	list := testList(t, 10, 77)
	src := edgelist.ListSource{List: list}
	roots := pinRoots(list)

	type cell struct {
		name       string
		rows, cols int
		set        func(*Config)
	}
	var cells []cell
	for _, l := range pinLayouts {
		for _, s := range pinStorage {
			cells = append(cells, cell{l.name + "/" + s.name, l.rows, l.cols, s.set})
		}
	}
	cells = append(cells, cell{"2x2/degraded", 2, 2, func(c *Config) {
		pinStorage[2].set(c)
		c.CacheBytes = 0 // a cache this size absorbs every read; nothing would die
		c.Faults = faults.Config{Seed: 5, DieAfterReads: 20}
		c.FaultMachine = 2
	}})

	for _, c := range cells {
		want, ok := pinned[c.name]
		if !ok {
			t.Errorf("%s: no pin recorded", c.name)
		}
		cfg := Config{Machines: c.cols, Alpha: 32, Beta: 64}
		c.set(&cfg)
		var run func(int64) (*Result, error)
		var closer func() error
		if c.rows == 0 {
			cl, err := Build(src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			run, closer = cl.Run, cl.Close
		} else {
			cfg.Machines, cfg.GridRows, cfg.GridCols = c.rows*c.cols, c.rows, c.cols
			g, err := BuildGrid(src, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			run, closer = g.Run, g.Close
		}
		for i, root := range roots {
			res, err := run(root)
			if err != nil {
				t.Fatalf("%s root %d: %v", c.name, root, err)
			}
			if c.name == "2x2/degraded" && !res.Degraded {
				t.Errorf("%s root %d: run did not degrade", c.name, root)
			}
			if got := pinOf(res); got != want[i] {
				t.Errorf("%s, run %d (root %d): got\n\t%v\npinned\n\t%v",
					c.name, i, root, got, want[i])
			}
		}
		if err := closer(); err != nil {
			t.Fatalf("%s: close: %v", c.name, err)
		}
	}
}

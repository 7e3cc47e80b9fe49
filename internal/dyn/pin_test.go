package dyn_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/csr"
	"semibfs/internal/dyn"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/vtime"
)

// The round pins: a SCALE 10 dynamic graph on the PCIe scenario, with
// backward tails beyond four edges per vertex on NVM, takes 24 rounds of 32
// updates with a compaction after rounds 8 and 16. Every round's clock
// after Apply, clock after RepairTree, repair statistics and repaired tree
// must equal these constants. They were recorded before the repair, the
// overlay and compaction lost their per-round allocations; a change to
// that host path must leave every constant untouched.

// roundPin is one round: the clock after Apply, the clock after RepairTree,
// the repair's statistics and an FNV-1a hash of the repaired parent array.
type roundPin struct {
	apply, repair vtime.Duration
	stats         bfs.RepairStats
	parent        uint64
}

func parentHash(parent []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parent {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestRepairRoundPins(t *testing.T) {
	list, err := generator.Generate(generator.Config{Scale: 10, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	topo := numa.Topology{Nodes: 2, CoresPerNode: 2}
	src := edgelist.ListSource{List: list}
	root := freshRoot(t, list)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			sc := core.ScenarioPCIeFlash
			sc.BackwardDRAMEdgeLimit = 4
			sc.Compress = compress
			clock := vtime.NewClock(0)
			ds, err := core.BuildDynamic(src, topo, sc, clock)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			st := bfs.NewTreeState(root, freshTree(t, src, ds.Part, topo, root))
			us := dyn.NewUpdateStream(list, 0x26)
			var got []roundPin
			for round := 1; round <= 24; round++ {
				batch := us.Batch(32)
				if _, err := ds.Graph.Apply(clock, batch); err != nil {
					t.Fatalf("round %d: apply: %v", round, err)
				}
				pin := roundPin{apply: clock.Now()}
				eu := make([]bfs.EdgeUpdate, len(batch))
				for i, up := range batch {
					eu[i] = bfs.EdgeUpdate{U: up.U, V: up.V, Del: up.Del}
				}
				if pin.stats, err = bfs.RepairTree(st, eu, ds.Backward(), ds.Part, clock); err != nil {
					t.Fatalf("round %d: repair: %v", round, err)
				}
				pin.repair, pin.parent = clock.Now(), parentHash(st.Parent)
				got = append(got, pin)
				if round == 8 || round == 16 {
					if err := ds.Graph.Compact(clock); err != nil {
						t.Fatalf("round %d: compact: %v", round, err)
					}
				}
			}
			want := roundPins[compress]
			if len(want) != len(got) {
				t.Fatalf("%d rounds, pinned %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("round %d = %+v, pinned %+v", i+1, got[i], want[i])
				}
			}
		})
	}
}

// freshRoot is the first vertex with a neighbor.
func freshRoot(t *testing.T, list *edgelist.List) int64 {
	t.Helper()
	for _, e := range list.Edges {
		if e.U != e.V {
			return min(e.U, e.V)
		}
	}
	t.Fatal("graph has no edges")
	return -1
}

// freshTree is the canonical top-down tree of root over src, traversed in
// DRAM so the pinned device sees only the dynamic graph's own traffic.
func freshTree(t *testing.T, src edgelist.Source, part *numa.Partition, topo numa.Topology, root int64) []int64 {
	t.Helper()
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := csr.BuildBackward(src, part, csr.SortByDegreeDesc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := bfs.NewRunner(bfs.DRAMForward{G: fg}, bfs.DRAMBackward{G: bg}, part,
		bfs.Config{Topology: topo, Mode: bfs.ModeTopDownOnly})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	return res.CloneTree()
}

var roundPins = map[bool][]roundPin{
	false: {
		{6534306, 9544382, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 61, EdgesScanned: 1565}, 0x8551866443dd368a},
		{13593454, 16551912, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 65, EdgesScanned: 5040}, 0xf226980890f40483},
		{20258597, 22793015, bfs.RepairStats{Orphaned: 0, Relaxed: 13, ParentsRecomputed: 62, EdgesScanned: 1802}, 0x1366735b8f5c26f2},
		{26569406, 29036849, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 64, EdgesScanned: 2552}, 0x8e83aed5dcd52d39},
		{33016557, 35891998, bfs.RepairStats{Orphaned: 0, Relaxed: 5, ParentsRecomputed: 63, EdgesScanned: 1944}, 0xa2b65408e8785e43},
		{39600390, 42203490, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 65, EdgesScanned: 1975}, 0x3e5ecd5fd2ffb2f5},
		{45909834, 48167476, bfs.RepairStats{Orphaned: 0, Relaxed: 13, ParentsRecomputed: 65, EdgesScanned: 1234}, 0xf9cd1cc4da33ab46},
		{52147866, 55094037, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 64, EdgesScanned: 2526}, 0xc8fec20f85c3c853},
		{311590520, 314674737, bfs.RepairStats{Orphaned: 0, Relaxed: 7, ParentsRecomputed: 62, EdgesScanned: 2652}, 0xd7fb164523cc6da7},
		{319065514, 324150734, bfs.RepairStats{Orphaned: 2, Relaxed: 8, ParentsRecomputed: 91, EdgesScanned: 7398}, 0x087894e07d4d3826},
		{328199806, 330596518, bfs.RepairStats{Orphaned: 0, Relaxed: 3, ParentsRecomputed: 62, EdgesScanned: 1760}, 0x5e2ef997b0686b70},
		{334854709, 337669317, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 64, EdgesScanned: 3556}, 0xe46223fef1f484ff},
		{341719754, 353829337, bfs.RepairStats{Orphaned: 6, Relaxed: 16, ParentsRecomputed: 188, EdgesScanned: 20650}, 0x421edfe89868dc3c},
		{358014409, 360681755, bfs.RepairStats{Orphaned: 0, Relaxed: 5, ParentsRecomputed: 64, EdgesScanned: 1461}, 0xc91406aa4cde304a},
		{364595170, 368034062, bfs.RepairStats{Orphaned: 1, Relaxed: 6, ParentsRecomputed: 75, EdgesScanned: 5703}, 0x7f31e8748c22ddff},
		{372014111, 374270388, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 63, EdgesScanned: 988}, 0x7b63cd45d2869946},
		{638251531, 641055900, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 62, EdgesScanned: 1318}, 0x736264bd718cb8ec},
		{645173995, 648256166, bfs.RepairStats{Orphaned: 1, Relaxed: 7, ParentsRecomputed: 67, EdgesScanned: 2372}, 0xf7fce34dab0c767e},
		{652441238, 655451655, bfs.RepairStats{Orphaned: 0, Relaxed: 2, ParentsRecomputed: 63, EdgesScanned: 1549}, 0x8c5e13c908fd956f},
		{659773750, 662304756, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 66, EdgesScanned: 1360}, 0x749396f0e65bb463},
		{666421146, 669226880, bfs.RepairStats{Orphaned: 0, Relaxed: 1, ParentsRecomputed: 64, EdgesScanned: 1589}, 0xecdb4af60f78e706},
		{673002588, 675951490, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 64, EdgesScanned: 3075}, 0xf61fe0a7ee9b90c8},
		{679999880, 683216344, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 70, EdgesScanned: 2021}, 0x77526b45c5152ea9},
		{687196393, 690002810, bfs.RepairStats{Orphaned: 0, Relaxed: 0, ParentsRecomputed: 64, EdgesScanned: 1769}, 0x2ec8527801993e3d},
	},
	true: {
		{4903045, 7910951, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 61, EdgesScanned: 1565}, 0x8551866443dd368a},
		{12300963, 14902646, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 65, EdgesScanned: 5040}, 0xf226980890f40483},
		{19292554, 21754173, bfs.RepairStats{Orphaned: 0, Relaxed: 13, ParentsRecomputed: 62, EdgesScanned: 1802}, 0x1366735b8f5c26f2},
		{26144205, 28469901, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 64, EdgesScanned: 2552}, 0x8e83aed5dcd52d39},
		{32859791, 35731255, bfs.RepairStats{Orphaned: 0, Relaxed: 5, ParentsRecomputed: 63, EdgesScanned: 1944}, 0xa2b65408e8785e43},
		{40121278, 42651329, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 65, EdgesScanned: 1975}, 0x3e5ecd5fd2ffb2f5},
		{47041148, 49297070, bfs.RepairStats{Orphaned: 0, Relaxed: 13, ParentsRecomputed: 65, EdgesScanned: 1234}, 0xf9cd1cc4da33ab46},
		{53687051, 56559168, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 64, EdgesScanned: 2526}, 0xc8fec20f85c3c853},
		{341435806, 344444700, bfs.RepairStats{Orphaned: 0, Relaxed: 7, ParentsRecomputed: 62, EdgesScanned: 2652}, 0xd7fb164523cc6da7},
		{348834717, 353488236, bfs.RepairStats{Orphaned: 2, Relaxed: 8, ParentsRecomputed: 91, EdgesScanned: 7398}, 0x087894e07d4d3826},
		{357878241, 360271191, bfs.RepairStats{Orphaned: 0, Relaxed: 3, ParentsRecomputed: 62, EdgesScanned: 1760}, 0x5e2ef997b0686b70},
		{364662238, 367262409, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 64, EdgesScanned: 3556}, 0xe46223fef1f484ff},
		{371652516, 382809034, bfs.RepairStats{Orphaned: 6, Relaxed: 16, ParentsRecomputed: 188, EdgesScanned: 20650}, 0x421edfe89868dc3c},
		{387198968, 389865115, bfs.RepairStats{Orphaned: 0, Relaxed: 5, ParentsRecomputed: 64, EdgesScanned: 1461}, 0xc91406aa4cde304a},
		{394255165, 397335653, bfs.RepairStats{Orphaned: 1, Relaxed: 6, ParentsRecomputed: 75, EdgesScanned: 5703}, 0x7f31e8748c22ddff},
		{401725539, 403981294, bfs.RepairStats{Orphaned: 0, Relaxed: 4, ParentsRecomputed: 63, EdgesScanned: 988}, 0x7b63cd45d2869946},
		{688874470, 691677190, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 62, EdgesScanned: 1318}, 0x736264bd718cb8ec},
		{696067272, 699144023, bfs.RepairStats{Orphaned: 1, Relaxed: 7, ParentsRecomputed: 67, EdgesScanned: 2372}, 0xf7fce34dab0c767e},
		{703533937, 706541815, bfs.RepairStats{Orphaned: 0, Relaxed: 2, ParentsRecomputed: 63, EdgesScanned: 1549}, 0x8c5e13c908fd956f},
		{710931767, 713461132, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 66, EdgesScanned: 1360}, 0x749396f0e65bb463},
		{717851041, 720653924, bfs.RepairStats{Orphaned: 0, Relaxed: 1, ParentsRecomputed: 64, EdgesScanned: 1589}, 0xecdb4af60f78e706},
		{725043922, 727848319, bfs.RepairStats{Orphaned: 0, Relaxed: 9, ParentsRecomputed: 64, EdgesScanned: 3075}, 0xf61fe0a7ee9b90c8},
		{732238241, 735451422, bfs.RepairStats{Orphaned: 0, Relaxed: 6, ParentsRecomputed: 70, EdgesScanned: 2021}, 0x77526b45c5152ea9},
		{739841336, 742644336, bfs.RepairStats{Orphaned: 0, Relaxed: 0, ParentsRecomputed: 64, EdgesScanned: 1769}, 0x2ec8527801993e3d},
	},
}

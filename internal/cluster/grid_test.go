package cluster

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/enc"
	"semibfs/internal/generator"
	"semibfs/internal/nvm"
)

func TestGridShape(t *testing.T) {
	cases := []struct{ p, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{9, 3, 3}, {12, 3, 4}, {16, 4, 4}, {7, 1, 7},
	}
	for _, c := range cases {
		r, col := GridShape(c.p)
		if r != c.r || col != c.c {
			t.Errorf("GridShape(%d) = %dx%d, want %dx%d", c.p, r, col, c.r, c.c)
		}
		if r*col != c.p {
			t.Errorf("GridShape(%d) does not multiply back", c.p)
		}
	}
}

// explicitShapes are the tall and degenerate grids GridShape never picks
// (rows > cols, a single row for a composite P, a single column — the
// no-ring branch of scanLevel), each in DRAM and offloaded + compressed.
func explicitShapes() []Config {
	var cfgs []Config
	for _, s := range [][2]int{{1, 4}, {4, 1}, {3, 2}, {2, 3}, {1, 1}} {
		for _, nvm := range []bool{false, true} {
			cfgs = append(cfgs, Config{
				Machines: s[0] * s[1], GridRows: s[0], GridCols: s[1],
				ForwardOnNVM: nvm, Compress: nvm,
			})
		}
	}
	return cfgs
}

func TestGridMatchesSerial(t *testing.T) {
	list := testList(t, 10, 91)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	var cfgs []Config
	for _, machines := range []int{1, 2, 4, 6, 9} {
		cfgs = append(cfgs, Config{Machines: machines})
	}
	for _, cfg := range append(cfgs, explicitShapes()...) {
		name := fmt.Sprintf("machines=%d shape=%dx%d nvm=%v", cfg.Machines, cfg.GridRows, cfg.GridCols, cfg.ForwardOnNVM)
		cfg.Alpha, cfg.Beta = 64, 640
		g, err := BuildGrid(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkTree(t, list, res)
		if res.Time <= 0 {
			t.Fatalf("%s: no virtual time", name)
		}
		if rows, cols := g.Shape(); cfg.GridRows > 0 && (rows != cfg.GridRows || cols != cfg.GridCols) {
			t.Fatalf("%s: built %dx%d", name, rows, cols)
		}
		if err := g.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

func TestGridHybridSwitches(t *testing.T) {
	list := testList(t, 10, 92)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 4, Alpha: 32, Beta: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(firstConnected(list))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("no switches at alpha=32")
	}
	dirs := map[bfs.Direction]bool{}
	for _, l := range res.Levels {
		dirs[l.Direction] = true
	}
	if !dirs[bfs.TopDown] || !dirs[bfs.BottomUp] {
		t.Fatalf("directions: %v", dirs)
	}
	checkTree(t, list, res)
}

func TestGridVisitedMatches1D(t *testing.T) {
	list := testList(t, 10, 93)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	oneD, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := oneD.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	v1 := r1.Visited
	grid, err := BuildGrid(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := grid.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Visited != v1 {
		t.Fatalf("visited differ: 1D %d, 2D %d", v1, r2.Visited)
	}
}

func TestGridCommLowerThan1D(t *testing.T) {
	// The 2D layout's collectives span sqrt(P) machines: for P=16, the
	// per-level frontier distribution moves ~4x fewer bytes than the
	// 1D allgather. Compare totals on identical traversals.
	list := testList(t, 11, 94)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	const machines = 16
	oneD, err := Build(src, Config{Machines: machines, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := oneD.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	comm1 := r1.CommBytes
	grid, err := BuildGrid(src, Config{Machines: machines, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := grid.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CommBytes >= comm1 {
		t.Fatalf("2D comm %d not below 1D comm %d", r2.CommBytes, comm1)
	}
	checkTree(t, list, r2)
}

func TestGridDeterministic(t *testing.T) {
	list := testList(t, 9, 95)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	var times []int64
	for trial := 0; trial < 2; trial++ {
		g, err := BuildGrid(src, Config{Machines: 6, Alpha: 32, Beta: 320})
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, int64(res.Time))
	}
	if times[0] != times[1] {
		t.Fatalf("times differ: %v", times)
	}
}

func TestGridOddVertexCount(t *testing.T) {
	const n = 773 // prime: uneven blocks and stripes everywhere
	l := &edgelist.List{NumVertices: n}
	for v := int64(0); v+1 < n; v++ {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 1})
	}
	for v := int64(0); v+31 < n; v += 11 {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 31})
	}
	g, err := BuildGrid(edgelist.ListSource{List: l}, Config{Machines: 6, Alpha: 8, Beta: 80})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != n {
		t.Fatalf("visited %d, want %d", res.Visited, n)
	}
	checkTree(t, l, res)
}

func TestGridNVMOffload(t *testing.T) {
	list := testList(t, 8, 96)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	ref, err := BuildGrid(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		g, err := BuildGrid(src, Config{
			Machines: 4, Alpha: 64, Beta: 640,
			ForwardOnNVM: true, Compress: compress,
		})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		res, err := g.Run(root)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		checkTree(t, list, res)
		for v := range res.Tree {
			if res.Tree[v] != refRes.Tree[v] {
				t.Fatalf("compress=%v: tree[%d] = %d, want %d (DRAM grid)",
					compress, v, res.Tree[v], refRes.Tree[v])
			}
		}
		report := g.MachineReport()
		if len(report) != 4 {
			t.Fatalf("compress=%v: %d machine statuses, want 4", compress, len(report))
		}
		for _, st := range report {
			if st.Dead {
				t.Fatalf("compress=%v: machine (%d,%d) reported dead", compress, st.Row, st.Col)
			}
			if st.Device.Reads == 0 {
				t.Errorf("compress=%v: machine (%d,%d) never read its device", compress, st.Row, st.Col)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatalf("compress=%v: close: %v", compress, err)
		}
	}
}

func TestGridRejectsBadRoot(t *testing.T) {
	list := testList(t, 8, 97)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(-1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := g.Run(list.NumVertices); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestGridOwnerOfCoversAllVertices(t *testing.T) {
	list := testList(t, 8, 98)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{Machines: 6})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := g.Shape()
	counts := make([][]int64, rows)
	for i := range counts {
		counts[i] = make([]int64, cols)
	}
	for v := int64(0); v < list.NumVertices; v++ {
		k := g.owner(v)
		i, j := k/cols, k%cols
		if k < 0 || k >= rows*cols {
			t.Fatalf("vertex %d owned by (%d,%d)", v, i, j)
		}
		counts[i][j]++
	}
	var total int64
	for i := range counts {
		for j := range counts[i] {
			total += counts[i][j]
			if counts[i][j] == 0 {
				t.Errorf("machine (%d,%d) owns no vertices", i, j)
			}
		}
	}
	if total != list.NumVertices {
		t.Fatalf("ownership covers %d of %d vertices", total, list.NumVertices)
	}
}

// referenceBlocks is the comparison-sort block construction BuildGrid
// replaced, kept as its oracle: machine (i,j)'s td block (row-major in the
// result) is filled by count and placement passes over column block j's
// sources and sorted ascending, and its bu block the same way over row
// block i's destinations, sorted hubs first (degree descending, ID
// ascending).
func referenceBlocks(src edgelist.Source, rows, cols int) (td, bu []csr.LocalGraph) {
	n := src.NumVertices()
	rowStart, colStart := referenceStarts(n, rows), referenceStarts(n, cols)
	deg := make([]int64, n)
	_ = src.ForEach(func(e edgelist.Edge) error {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
		return nil
	})
	fill := func(transpose bool) []csr.LocalGraph {
		blocks := make([]csr.LocalGraph, rows*cols)
		for k := range blocks {
			i, j := k/cols, k%cols
			b := &blocks[k]
			b.Base, b.Len = colStart[j], colStart[j+1]-colStart[j]
			if transpose {
				b.Base, b.Len = rowStart[i], rowStart[i+1]-rowStart[i]
			}
			b.Index = make([]int64, b.Len+1)
		}
		// at returns the block holding the edge u->v and v's list in it.
		at := func(u, v int64) (*csr.LocalGraph, int64) {
			b := &blocks[blockOf(v, rowStart)*cols+blockOf(u, colStart)]
			if transpose {
				return b, v
			}
			return b, u
		}
		each := func(fn func(u, v int64)) {
			_ = src.ForEach(func(e edgelist.Edge) error {
				if e.U != e.V {
					fn(e.U, e.V)
					fn(e.V, e.U)
				}
				return nil
			})
		}
		each(func(u, v int64) {
			b, key := at(u, v)
			b.Index[key-b.Base+1]++
		})
		cursors := make([][]int64, len(blocks))
		for k := range blocks {
			b := &blocks[k]
			for i := int64(0); i < b.Len; i++ {
				b.Index[i+1] += b.Index[i]
			}
			b.Value = make([]int64, b.Index[b.Len])
			cursors[k] = slices.Clone(b.Index[:b.Len])
		}
		each(func(u, v int64) {
			b, key := at(u, v)
			c := cursors[blockOf(v, rowStart)*cols+blockOf(u, colStart)]
			val := v
			if transpose {
				val = u
			}
			b.Value[c[key-b.Base]] = val
			c[key-b.Base]++
		})
		return blocks
	}
	sortLists := func(blocks []csr.LocalGraph, order func(a, b int64) int) {
		for _, b := range blocks {
			for k := int64(0); k < b.Len; k++ {
				slices.SortFunc(b.Value[b.Index[k]:b.Index[k+1]], order)
			}
		}
	}
	td, bu = fill(false), fill(true)
	sortLists(td, cmp.Compare[int64])
	sortLists(bu, func(u, c int64) int {
		if d := cmp.Compare(deg[c], deg[u]); d != 0 {
			return d
		}
		return cmp.Compare(u, c)
	})
	return td, bu
}

// referenceStarts splits [0, n) into parts blocks whose sizes differ by at
// most one, the larger ones first.
func referenceStarts(n int64, parts int) []int64 {
	starts := make([]int64, parts+1)
	base, rem := n/int64(parts), n%int64(parts)
	for k := 0; k < parts; k++ {
		starts[k+1] = starts[k] + base
		if int64(k) < rem {
			starts[k+1]++
		}
	}
	return starts
}

// referenceBytes is block b as stored on its index and value stacks: raw
// little-endian int64s, or byte offsets into back-to-back delta+varint
// lists anchored at their global source IDs.
func referenceBytes(b csr.LocalGraph, compress bool) (idx, val []byte) {
	index := b.Index
	if compress {
		index = make([]int64, b.Len+1)
		for k := int64(0); k < b.Len; k++ {
			val = enc.AppendList(val, b.Base+k, b.Value[b.Index[k]:b.Index[k+1]])
			index[k+1] = int64(len(val))
		}
	} else {
		for _, v := range b.Value {
			val = binary.LittleEndian.AppendUint64(val, uint64(v))
		}
	}
	for _, x := range index {
		idx = binary.LittleEndian.AppendUint64(idx, uint64(x))
	}
	return idx, val
}

// blockTestLists are seeded random graphs on a prime vertex count (no grid
// shape divides it) with three hubs, self-loops, duplicate edges and
// isolated vertices, plus one SCALE-10 Kronecker graph.
func blockTestLists(t *testing.T) []*edgelist.List {
	var lists []*edgelist.List
	for seed, n := range []int64{101, 163, 211} {
		r := rand.New(rand.NewPCG(uint64(seed), 33))
		l := &edgelist.List{NumVertices: n}
		reach := n - 7 // the last seven vertices stay isolated
		for len(l.Edges) < int(6*n) {
			u, v := r.Int64N(reach), r.Int64N(reach)
			switch r.IntN(8) {
			case 0, 1, 2:
				v = []int64{0, reach / 2, reach - 1}[r.IntN(3)]
			case 3:
				v = u
			case 4:
				if len(l.Edges) > 0 {
					e := l.Edges[r.IntN(len(l.Edges))]
					u, v = e.V, e.U
				}
			}
			l.Edges = append(l.Edges, edgelist.Edge{U: u, V: v})
		}
		lists = append(lists, l)
	}
	return append(lists, testList(t, 10, 99))
}

// TestGridBlocksMatchReference pins every machine's blocks to the
// comparison-sort oracle, array for array in DRAM and byte for byte on the
// stacks, raw and compressed.
func TestGridBlocksMatchReference(t *testing.T) {
	stored := func(st nvm.Storage) []byte {
		buf := make([]byte, st.Size())
		if err := st.ReadAt(nil, buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	same := func(name string, got, want csr.LocalGraph) {
		if got.Base != want.Base || got.Len != want.Len ||
			!slices.Equal(got.Index, want.Index) || !slices.Equal(got.Value, want.Value) {
			t.Fatalf("%s: block over [%d,+%d) differs from the reference over [%d,+%d)",
				name, got.Base, got.Len, want.Base, want.Len)
		}
	}
	for li, list := range blockTestLists(t) {
		src := edgelist.ListSource{List: list}
		for _, s := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 3}, {3, 5}, {4, 4}} {
			rows, cols := s[0], s[1]
			td, bu := referenceBlocks(src, rows, cols)
			for _, st := range []struct {
				name          string
				nvm, compress bool
			}{{"dram", false, false}, {"raw", true, false}, {"compressed", true, true}} {
				g, err := BuildGrid(src, Config{Machines: rows * cols, GridRows: rows, GridCols: cols,
					ForwardOnNVM: st.nvm, Compress: st.compress})
				if err != nil {
					t.Fatal(err)
				}
				for k, m := range g.machines {
					name := fmt.Sprintf("list %d, %dx%d %s, machine %d", li, rows, cols, st.name, k)
					same(name+" bu", m.bu.LocalGraph, bu[k])
					if !st.nvm {
						same(name+" td", m.td.LocalGraph, td[k])
						continue
					}
					for _, b := range []struct {
						dir string
						got *block
						ref csr.LocalGraph
					}{{"td", &m.td, td[k]}, {"bu", &m.bu, bu[k]}} {
						idx, val := referenceBytes(b.ref, st.compress)
						if !bytes.Equal(stored(b.got.idx), idx) || !bytes.Equal(stored(b.got.val), val) {
							t.Fatalf("%s %s: stored bytes differ from the reference", name, b.dir)
						}
					}
				}
				if err := g.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// countingSource counts the passes made over its edge list.
type countingSource struct {
	edgelist.ListSource
	passes int
}

func (s *countingSource) ForEach(fn func(e edgelist.Edge) error) error {
	s.passes++
	return s.ListSource.ForEach(fn)
}

// TestBuildGridPasses: the degrees, the block sizes and the placement
// take one pass over the edge list each; the transposes read the blocks.
func TestBuildGridPasses(t *testing.T) {
	src := &countingSource{ListSource: edgelist.ListSource{List: testList(t, 8, 100)}}
	if _, err := BuildGrid(src, Config{Machines: 6}); err != nil {
		t.Fatal(err)
	}
	if src.passes != 3 {
		t.Fatalf("BuildGrid read the edge list %d times, want 3", src.passes)
	}
}

// TestBuildGridAllocs bounds BuildGrid's allocations by its blocks and
// O(n) words besides: the degrees, the per-column degree orders and their
// counts, and the run state (tree, claim candidates, four bitmaps).
func TestBuildGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	list := testList(t, 14, 1)
	src := edgelist.ListSource{List: list}
	n := list.NumVertices
	var g *Grid
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err = BuildGrid(src, Config{Machines: 16})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	var blocks, maxDeg int64
	for _, m := range g.machines {
		blocks += m.td.Bytes() + m.bu.Bytes()
	}
	for _, d := range g.deg {
		maxDeg = max(maxDeg, d)
	}
	// The allocator rounds each large array up to a page: 4 per machine,
	// 2 per column and 8 more.
	scratch := 8*(4*n+int64(g.cols)*(maxDeg+1)) + 4*n/8 + 8<<10*int64(4*len(g.machines)+2*g.cols+8)
	if limit := blocks + scratch; got > uint64(limit) {
		t.Errorf("BuildGrid allocated %d bytes, want at most %d (blocks %d)", got, limit, blocks)
	}
}

func BenchmarkBuildGridScale14(b *testing.B) {
	list, err := generator.Generate(generator.Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := edgelist.ListSource{List: list}
	cfg := Config{Machines: 16, ForwardOnNVM: true, Compress: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := BuildGrid(src, cfg)
		if err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}

// gridRunAllocs bounds the objects one BFS on grid-4x4's shape allocates:
// level-loop closures and per-column slices. It measures 67 here, and the
// benchmark's grid-4x4 op 88. distributeFrontier builds a numa.Partition
// per column per level, which stays on the stack only while NewPartition
// inlines: a NewPartition that does not inline puts this test at 93.
const gridRunAllocs = 88

// TestGridRunAllocs runs steady-state BFSs on a 4x4 grid with the
// benchmark's grid-4x4 configuration at SCALE 14: per-machine PCIe stacks
// with compressed adjacency and a page cache, and compressed wire formats.
func TestGridRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	list := testList(t, 14, 1)
	g, err := BuildGrid(edgelist.ListSource{List: list}, Config{
		Machines: 16, GridRows: 4, GridCols: 4, Alpha: 1e4, Beta: 1e5,
		ForwardOnNVM: true, Compress: true, CacheBytes: 64 << 10,
		LatencyScale: nvm.ScaleEquivalenceFactor(14, 27),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var roots []int64
	for v := int64(0); len(roots) < 8; v += 97 {
		if g.deg[v] > 0 {
			roots = append(roots, v)
		}
	}
	i := 0
	run := func() {
		if _, err := g.Run(roots[i%len(roots)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range roots {
		run()
	}
	if allocs := testing.AllocsPerRun(2*len(roots), run); allocs > gridRunAllocs {
		t.Fatalf("a grid BFS allocates %.1f objects, want <= %d", allocs, gridRunAllocs)
	}
}

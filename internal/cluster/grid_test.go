package cluster

import (
	"fmt"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/edgelist"
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

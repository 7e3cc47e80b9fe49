package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"

	"semibfs/internal/bfs"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/generator"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/validate"
	"semibfs/internal/vtime"
)

func testList(t *testing.T, scale int, seed uint64) *edgelist.List {
	t.Helper()
	list, err := generator.Generate(generator.Config{Scale: scale, EdgeFactor: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return list
}

func serialLevels(list *edgelist.List, root int64) []int64 {
	n := list.NumVertices
	adj := make([][]int64, n)
	for _, e := range list.Edges {
		if e.U != e.V {
			adj[e.U] = append(adj[e.U], e.V)
			adj[e.V] = append(adj[e.V], e.U)
		}
	}
	levels := make([]int64, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[root] = 0
	queue := []int64{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if levels[w] == -1 {
				levels[w] = levels[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return levels
}

func firstConnected(list *edgelist.List) int64 {
	deg := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	for v, d := range deg {
		if d > 0 {
			return int64(v)
		}
	}
	return -1
}

func checkTree(t *testing.T, list *edgelist.List, res *Result) {
	t.Helper()
	want := serialLevels(list, res.Root)
	got, err := validate.Levels(res.Tree, res.Root)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d: level %d, serial says %d", v, got[v], want[v])
		}
	}
	if _, err := validate.Run(res.Tree, res.Root, edgelist.ListSource{List: list}); err != nil {
		t.Fatalf("Graph500 validation: %v", err)
	}
}

func TestClusterMatchesSerial(t *testing.T) {
	list := testList(t, 10, 51)
	src := edgelist.ListSource{List: list}
	for _, machines := range []int{1, 2, 4, 7} {
		c, err := Build(src, Config{Machines: machines, Alpha: 64, Beta: 640})
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		root := firstConnected(list)
		res, err := c.Run(root)
		if err != nil {
			t.Fatalf("machines=%d: %v", machines, err)
		}
		checkTree(t, list, res)
		if res.Time <= 0 {
			t.Fatalf("machines=%d: no virtual time", machines)
		}
	}
}

func TestClusterHybridSwitches(t *testing.T) {
	list := testList(t, 10, 52)
	c, err := Build(edgelist.ListSource{List: list}, Config{Machines: 4, Alpha: 32, Beta: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(firstConnected(list))
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("no direction switches at alpha=32")
	}
	dirs := map[bfs.Direction]bool{}
	for _, l := range res.Levels {
		dirs[l.Direction] = true
	}
	if !dirs[bfs.TopDown] || !dirs[bfs.BottomUp] {
		t.Fatalf("directions used: %v", dirs)
	}
	checkTree(t, list, res)
}

func TestClusterCommunicationAccounting(t *testing.T) {
	list := testList(t, 10, 53)
	src := edgelist.ListSource{List: list}
	c2, err := Build(src, Config{Machines: 2, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	c8, err := Build(src, Config{Machines: 8, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnected(list)
	r2, err := c2.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := c8.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CommBytes <= 0 || r8.CommBytes <= 0 {
		t.Fatal("no communication recorded")
	}
	// More machines -> more interconnect traffic for the same graph.
	if r8.CommBytes <= r2.CommBytes {
		t.Fatalf("8-machine traffic %d not above 2-machine %d", r8.CommBytes, r2.CommBytes)
	}
	// Per-level bytes must sum to the total.
	var sum int64
	for _, l := range r8.Levels {
		sum += l.CommBytes
	}
	if sum > r8.CommBytes {
		t.Fatalf("per-level comm %d exceeds total %d", sum, r8.CommBytes)
	}
}

func TestClusterForwardOnNVM(t *testing.T) {
	list := testList(t, 10, 54)
	src := edgelist.ListSource{List: list}
	dram, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	nvmC, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640, ForwardOnNVM: true})
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnected(list)
	a, err := dram.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	aVisited, aTime := a.Visited, a.Time
	b, err := nvmC.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, list, b)
	if b.Visited != aVisited {
		t.Fatalf("visited differ: %d vs %d", b.Visited, aVisited)
	}
	if b.Time <= aTime {
		t.Fatalf("NVM cluster (%v) not slower than DRAM cluster (%v)", b.Time, aTime)
	}
	report := nvmC.MachineReport()
	if len(report) != 4 {
		t.Fatalf("%d machine statuses", len(report))
	}
	var reads int64
	for _, st := range report {
		reads += st.Device.Reads
	}
	if reads == 0 {
		t.Fatal("no per-machine NVM reads")
	}
	for _, st := range dram.MachineReport() {
		if st.Device.Reads != 0 || st.Health != nil {
			t.Fatal("DRAM cluster has device stats")
		}
	}
}

// TestClusterCompressedAdjacency checks that machines reading
// delta+varint-encoded stores through the shared semiext decoder produce
// exactly the DRAM cluster's tree, with fewer device bytes than the raw
// layout.
func TestClusterCompressedAdjacency(t *testing.T) {
	list := testList(t, 10, 54)
	src := edgelist.ListSource{List: list}
	dram, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640, ForwardOnNVM: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Build(src, Config{Machines: 4, Alpha: 64, Beta: 640, ForwardOnNVM: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	root := firstConnected(list)
	want, err := dram.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	wantTree := append([]int64(nil), want.Tree...)
	got, err := comp.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, list, got)
	for v := range wantTree {
		if got.Tree[v] != wantTree[v] {
			t.Fatalf("tree[%d] = %d compressed, %d in DRAM", v, got.Tree[v], wantTree[v])
		}
	}
	if _, err := raw.Run(root); err != nil {
		t.Fatal(err)
	}
	bytesOf := func(c *Cluster) int64 {
		var total int64
		for _, st := range c.MachineReport() {
			total += st.Device.ReadBytes
		}
		return total
	}
	if cb, rb := bytesOf(comp), bytesOf(raw); cb == 0 || cb >= rb {
		t.Fatalf("compressed cluster read %d device bytes, raw read %d", cb, rb)
	}
}

// TestClusterCacheBudgetMatchesSingleNode holds ClusterConfig's promise that
// a grid machine is the scenario's single-node stack: a compressed machine's
// page cache is as large as the one semiext.OffloadForward builds from the
// same CacheBytes.
func TestClusterCacheBudgetMatchesSingleNode(t *testing.T) {
	const budget = 64 << 10
	list := testList(t, 8, 54)
	src := edgelist.ListSource{List: list}
	c, err := Build(src, Config{Machines: 2, ForwardOnNVM: true, Compress: true, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fg, err := csr.BuildForward(src, numa.NewPartition(numa.Topology{Nodes: 1, CoresPerNode: 1}, int(list.NumVertices)))
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(nvm.ProfileIoDrive2, 0)
	mk := func(_ string, chunk int) (nvm.Storage, error) { return nvm.NewMemStore(dev, chunk), nil }
	sf, err := semiext.OffloadForward(fg, mk, nil, semiext.ForwardOptions{Compress: true, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	want := sf.Cache().CapacityBytes()
	for k, m := range c.machines {
		if got := m.stacks.cache.CapacityBytes(); got != want {
			t.Errorf("machine %d: page cache of %d bytes, the single node's has %d", k, got, want)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	list := testList(t, 9, 55)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	var times []int64
	for trial := 0; trial < 2; trial++ {
		c, err := Build(src, Config{Machines: 3, Alpha: 32, Beta: 320})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, int64(res.Time))
	}
	if times[0] != times[1] {
		t.Fatalf("virtual times differ: %v", times)
	}
}

// switchStore fails every read, retryably, while failing is set: the
// retry layer backs off on the reader's clock until it gives up.
type switchStore struct {
	nvm.Storage
	failing *atomic.Bool
}

func (s *switchStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if s.failing.Load() {
		return fmt.Errorf("switch: %w", nvm.ErrTransient)
	}
	return s.Storage.ReadAt(clock, p, off)
}

// TestRunTimeIsPerRun pins Result.Time to the run it describes: machine
// clocks never rewind, so a reused cluster or grid must subtract the
// run's start stamp rather than report its cumulative clock — and a run
// whose storage failed in between (machine 3's media: the 1D run aborts
// mid-level with machine 3's clock ahead by its retry backoff, the grid's
// degrades) must not make the next one cheaper.
func TestRunTimeIsPerRun(t *testing.T) {
	list := testList(t, 9, 55)
	src := edgelist.ListSource{List: list}
	root := firstConnected(list)
	var failing atomic.Bool
	cfg := Config{
		Machines: 4, Alpha: 32, Beta: 320, ForwardOnNVM: true,
		WrapBase: func(machine int, name string, inner nvm.Storage) nvm.Storage {
			if machine != 3 {
				return inner
			}
			return &switchStore{Storage: inner, failing: &failing}
		},
	}
	c, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := BuildGrid(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for name, run := range map[string]func(int64) (*Result, error){"1d": c.Run, "2d": g.Run} {
		first, err := run(root)
		if err != nil {
			t.Fatal(err)
		}
		firstTime := first.Time
		failing.Store(true)
		res, err := run(root)
		failing.Store(false)
		if name == "1d" && err == nil {
			t.Errorf("1d: run survived machine 3's storage failure")
		}
		if name == "2d" && (err != nil || !res.Degraded) {
			t.Errorf("2d: run over machine 3's failed storage: err %v, want a degraded result", err)
		}
		second, err := run(root)
		if err != nil {
			t.Fatal(err)
		}
		if firstTime <= 0 || second.Time != firstTime {
			t.Errorf("%s: runs of root %d around a failed one took %v then %v", name, root, firstTime, second.Time)
		}
	}
}

func TestClusterReuseAcrossRoots(t *testing.T) {
	list := testList(t, 9, 56)
	c, err := Build(edgelist.ListSource{List: list}, Config{Machines: 4, Alpha: 32, Beta: 320})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	deg := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	for v := int64(0); v < list.NumVertices && count < 6; v++ {
		if deg[v] == 0 {
			continue
		}
		count++
		res, err := c.Run(v)
		if err != nil {
			t.Fatalf("root %d: %v", v, err)
		}
		checkTree(t, list, res)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if err := (Config{Machines: -1}).Validate(); err == nil {
		t.Error("negative machines validated")
	}
	bad := Config{ForwardOnNVM: true, Device: nvm.Profile{Name: "broken"}}
	if err := bad.Validate(); err == nil {
		t.Error("broken device validated")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestClusterRejectsBadRoot(t *testing.T) {
	list := testList(t, 8, 57)
	c, err := Build(edgelist.ListSource{List: list}, Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(-1); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := c.Run(list.NumVertices); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestNetworkModelTransfer(t *testing.T) {
	m := NetworkModel{Latency: 100, Bandwidth: 1e9} // 1 byte/ns
	if got := m.transfer(1000); got != 1100 {
		t.Fatalf("transfer(1000) = %v", got)
	}
	if got := m.transfer(0); got != 100 {
		t.Fatalf("transfer(0) = %v", got)
	}
	if got := m.transfer(-5); got != 100 {
		t.Fatalf("transfer(-5) = %v", got)
	}
}

func TestClusterOddVertexCount(t *testing.T) {
	// A prime vertex count exercises straddling-word delegation.
	const n = 521
	l := &edgelist.List{NumVertices: n}
	for v := int64(0); v+1 < n; v++ {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 1})
	}
	for v := int64(0); v+29 < n; v += 7 {
		l.Edges = append(l.Edges, edgelist.Edge{U: v, V: v + 29})
	}
	c, err := Build(edgelist.ListSource{List: l}, Config{Machines: 3, Alpha: 8, Beta: 80})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != n {
		t.Fatalf("visited %d, want %d", res.Visited, n)
	}
	checkTree(t, l, res)
}

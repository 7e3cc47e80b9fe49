package numa

import (
	"testing"
	"testing/quick"

	"semibfs/internal/vtime"
)

func TestTopologyValidate(t *testing.T) {
	if err := DefaultTopology.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Topology{{}, {Nodes: -1, CoresPerNode: 2}, {Nodes: 2}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("topology %+v validated", bad)
		}
	}
}

func TestTopologyCores(t *testing.T) {
	topo := Topology{Nodes: 4, CoresPerNode: 12}
	if topo.TotalCores() != 48 {
		t.Fatalf("TotalCores = %d", topo.TotalCores())
	}
	if topo.NodeOfCore(0) != 0 || topo.NodeOfCore(11) != 0 ||
		topo.NodeOfCore(12) != 1 || topo.NodeOfCore(47) != 3 {
		t.Fatal("NodeOfCore mapping wrong")
	}
}

func TestPartitionEvenDivision(t *testing.T) {
	p := NewPartition(Topology{Nodes: 4, CoresPerNode: 1}, 100)
	for k := 0; k < 4; k++ {
		if p.Size(k) != 25 {
			t.Fatalf("node %d owns %d vertices", k, p.Size(k))
		}
	}
	if p.NodeOf(0) != 0 || p.NodeOf(24) != 0 || p.NodeOf(25) != 1 ||
		p.NodeOf(99) != 3 {
		t.Fatal("NodeOf boundary mapping wrong")
	}
}

func TestPartitionUnevenDivision(t *testing.T) {
	p := NewPartition(Topology{Nodes: 4, CoresPerNode: 1}, 10)
	// 10 = 3+3+2+2.
	sizes := []int{3, 3, 2, 2}
	for k, want := range sizes {
		if p.Size(k) != want {
			t.Fatalf("node %d owns %d vertices, want %d", k, p.Size(k), want)
		}
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	f := func(nRaw uint16, nodesRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		nodes := int(nodesRaw)%7 + 1
		p := NewPartition(Topology{Nodes: nodes, CoresPerNode: 1}, n)
		// Ranges must tile [0, n).
		if p.Starts[0] != 0 || p.Starts[nodes] != n {
			return false
		}
		for k := 0; k < nodes; k++ {
			lo, hi := p.Range(k)
			if lo > hi {
				return false
			}
			for v := lo; v < hi; v++ {
				if p.NodeOf(v) != k {
					return false
				}
			}
			// Sizes differ by at most one.
			if p.Size(k) < n/nodes || p.Size(k) > n/nodes+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSingleNode(t *testing.T) {
	p := NewPartition(Topology{Nodes: 1, CoresPerNode: 48}, 1000)
	if p.NodeOf(0) != 0 || p.NodeOf(999) != 0 || p.Size(0) != 1000 {
		t.Fatal("single-node partition wrong")
	}
}

// divideNodeOf is NodeOf as it was before the reciprocal: a 64-bit divide
// for the estimate, then the same correction loops.
func divideNodeOf(p *Partition, v int) int {
	if p.N == 0 {
		return 0
	}
	k := v * p.Topology.Nodes / p.N
	if k >= p.Topology.Nodes {
		k = p.Topology.Nodes - 1
	}
	for v < p.Starts[k] {
		k--
	}
	for v >= p.Starts[k+1] {
		k++
	}
	return k
}

// TestNodeOfMatchesDivide checks the reciprocal NodeOf against the divide
// for every vertex over a grid of sizes: fewer vertices than nodes, uneven
// divisions, powers of two and the default topology, and through a
// Partition literal whose reciprocal is zero.
func TestNodeOfMatchesDivide(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 10, 47, 63, 64, 65, 100, 999, 1000, 4097, 1<<16 + 3, 1 << 17} {
		for _, nodes := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 48, 64, 100} {
			p := NewPartition(Topology{Nodes: nodes, CoresPerNode: 1}, n)
			lit := &Partition{Topology: p.Topology, N: p.N, Starts: p.Starts}
			for v := 0; v < n; v++ {
				want := divideNodeOf(p, v)
				if got := p.NodeOf(v); got != want {
					t.Fatalf("n %d, %d nodes: NodeOf(%d) = %d, the divide gives %d", n, nodes, v, got, want)
				}
				if got := lit.NodeOf(v); got != want {
					t.Fatalf("n %d, %d nodes, zero reciprocal: NodeOf(%d) = %d, the divide gives %d", n, nodes, v, got, want)
				}
			}
		}
	}
}

func TestCostModelAccess(t *testing.T) {
	m := DefaultCostModel
	if m.Access(true) != m.LocalAccess {
		t.Fatal("local access cost")
	}
	if m.Access(false) != m.RemoteAccess {
		t.Fatal("remote access cost")
	}
	if m.RemoteAccess <= m.LocalAccess {
		t.Fatal("remote access should cost more than local")
	}
}

func TestCostModelStream(t *testing.T) {
	m := DefaultCostModel
	if m.Stream(0) != 0 || m.Stream(-5) != 0 {
		t.Fatal("non-positive stream should be free")
	}
	// One cache line.
	if m.Stream(1) != m.SeqBytes || m.Stream(64) != m.SeqBytes {
		t.Fatal("sub-line stream should cost one line")
	}
	if m.Stream(65) != 2*m.SeqBytes {
		t.Fatal("65 bytes should cost two lines")
	}
	if m.Stream(640) != 10*m.SeqBytes {
		t.Fatal("640 bytes should cost ten lines")
	}
}

func TestCostModelStreamMonotonic(t *testing.T) {
	m := DefaultCostModel
	prev := vtime.Duration(0)
	for n := 0; n < 1000; n += 17 {
		c := m.Stream(n)
		if c < prev {
			t.Fatalf("Stream(%d) = %d < previous %d", n, c, prev)
		}
		prev = c
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{LocalAccesses: 1, RemoteAccesses: 2, BytesStreamed: 3, AtomicOps: 4}
	b := Counters{LocalAccesses: 10, RemoteAccesses: 20, BytesStreamed: 30, AtomicOps: 40}
	a.Add(b)
	if a != (Counters{11, 22, 33, 44}) {
		t.Fatalf("Add: %+v", a)
	}
}

func BenchmarkNodeOf(b *testing.B) {
	p := NewPartition(Topology{Nodes: 4, CoresPerNode: 12}, 1<<20)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = p.NodeOf(i & (1<<20 - 1))
	}
	_ = sink
}

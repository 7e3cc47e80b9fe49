package generator

import (
	"testing"
	"testing/quick"

	"semibfs/internal/edgelist"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Scale: 10}.WithDefaults()
	if c.EdgeFactor != 16 {
		t.Fatalf("EdgeFactor = %d", c.EdgeFactor)
	}
	if c.A != InitiatorA || c.B != InitiatorB || c.C != InitiatorC {
		t.Fatal("initiator defaults")
	}
	if c.Workers <= 0 {
		t.Fatal("workers default")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Scale: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scale: 0},
		{Scale: 41},
		{Scale: 10, EdgeFactor: -1},
		{Scale: 10, A: 0.9, B: 0.9, C: 0.9},
		{Scale: 10, A: -0.1, B: 0.5, C: 0.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
}

func TestDimensions(t *testing.T) {
	c := Config{Scale: 12}
	if c.NumVertices() != 4096 {
		t.Fatalf("NumVertices = %d", c.NumVertices())
	}
	if c.NumEdges() != 4096*16 {
		t.Fatalf("NumEdges = %d", c.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := Config{Scale: 10, EdgeFactor: 4, Seed: 99}
	a, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("lengths differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestGenerateWorkerCountInvariant(t *testing.T) {
	base, err := Generate(Config{Scale: 9, EdgeFactor: 4, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7} {
		got, err := Generate(Config{Scale: 9, EdgeFactor: 4, Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Edges {
			if base.Edges[i] != got.Edges[i] {
				t.Fatalf("workers=%d: edge %d differs", w, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{Scale: 9, EdgeFactor: 4, Seed: 1})
	b, _ := Generate(Config{Scale: 9, EdgeFactor: 4, Seed: 2})
	same := 0
	for i := range a.Edges {
		if a.Edges[i] == b.Edges[i] {
			same++
		}
	}
	if same > len(a.Edges)/100 {
		t.Fatalf("%d/%d edges identical across seeds", same, len(a.Edges))
	}
}

func TestEndpointsInRange(t *testing.T) {
	list, err := Generate(Config{Scale: 11, EdgeFactor: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := list.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRangeMatchesFull(t *testing.T) {
	c := Config{Scale: 9, EdgeFactor: 4, Seed: 17}
	full, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]edgelist.Edge, 100)
	if err := GenerateRange(c, 500, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != full.Edges[500+i] {
			t.Fatalf("edge %d differs", 500+i)
		}
	}
}

func TestGenerateRangeBounds(t *testing.T) {
	c := Config{Scale: 9, EdgeFactor: 4, Seed: 1}
	if err := GenerateRange(c, -1, make([]edgelist.Edge, 1)); err == nil {
		t.Error("negative offset accepted")
	}
	if err := GenerateRange(c, c.NumEdges(), make([]edgelist.Edge, 1)); err == nil {
		t.Error("out-of-range slice accepted")
	}
	if err := GenerateRange(c, c.NumEdges()-1, make([]edgelist.Edge, 1)); err != nil {
		t.Errorf("last edge rejected: %v", err)
	}
}

// permute applies the seed-keyed vertex relabeling of an n-vertex instance.
func permute(x, n int64, seed uint64) int64 {
	p := newPermutation(n, seed)
	return p.apply(x)
}

func TestPermuteIsBijection(t *testing.T) {
	for _, scale := range []int{1, 2, 3, 7, 12} {
		n := int64(1) << uint(scale)
		seen := make([]bool, n)
		for x := int64(0); x < n; x++ {
			y := permute(x, n, 42)
			if y < 0 || y >= n {
				t.Fatalf("scale %d: permute(%d) = %d out of range", scale, x, y)
			}
			if seen[y] {
				t.Fatalf("scale %d: collision at %d", scale, y)
			}
			seen[y] = true
		}
	}
}

func TestPermuteSeedDependent(t *testing.T) {
	n := int64(1 << 12)
	same := 0
	for x := int64(0); x < n; x++ {
		if permute(x, n, 1) == permute(x, n, 2) {
			same++
		}
	}
	if same > int(n)/100 {
		t.Fatalf("%d/%d fixed across seeds", same, n)
	}
}

func TestQuickPermuteStaysInDomain(t *testing.T) {
	f := func(x uint16, seed uint64) bool {
		n := int64(1 << 16)
		y := permute(int64(x), n, seed)
		return y >= 0 && y < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSkew(t *testing.T) {
	// A Kronecker graph is scale-free-ish: the max degree must vastly
	// exceed the mean, and isolated vertices must exist at scale.
	list, err := Generate(Config{Scale: 13, EdgeFactor: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int64, list.NumVertices)
	for _, e := range list.Edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	var max, isolated int64
	for _, d := range deg {
		if d > max {
			max = d
		}
		if d == 0 {
			isolated++
		}
	}
	mean := 2 * float64(len(list.Edges)) / float64(list.NumVertices)
	if float64(max) < 10*mean {
		t.Errorf("max degree %d not heavy-tailed (mean %.1f)", max, mean)
	}
	if isolated == 0 {
		t.Error("no isolated vertices in a Kronecker graph")
	}
	if isolated > list.NumVertices/2 {
		t.Errorf("%d/%d isolated vertices — too many", isolated, list.NumVertices)
	}
}

func TestEdgeIsPure(t *testing.T) {
	c := Config{Scale: 10, EdgeFactor: 4, Seed: 11}
	for _, i := range []int64{0, 1, 999, c.NumEdges() - 1} {
		a := c.Edge(i)
		b := c.Edge(i)
		if a != b {
			t.Fatalf("Edge(%d) not deterministic", i)
		}
	}
}

func BenchmarkEdge(b *testing.B) {
	c := Config{Scale: 20, EdgeFactor: 16, Seed: 1}.WithDefaults()
	var sink edgelist.Edge
	for i := 0; i < b.N; i++ {
		sink = c.Edge(int64(i))
	}
	_ = sink
}

func BenchmarkGenerateScale16(b *testing.B) {
	c := Config{Scale: 16, EdgeFactor: 16, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c); err != nil {
			b.Fatal(err)
		}
	}
}

// Package generator implements Step 1 of the Graph500 benchmark: the
// Kronecker (R-MAT) edge-list generator.
//
// Each edge is produced by SCALE recursive quadrant choices over the
// adjacency matrix with the Graph500 initiator probabilities
// (A, B, C, D) = (0.57, 0.19, 0.19, 0.05), followed by a random vertex
// relabeling (a bijective permutation of the vertex ID space) and random
// endpoint swapping, both required by the specification so that the heavy
// rows of the Kronecker matrix are not trivially identifiable from vertex
// IDs.
//
// Generation is embarrassingly parallel and fully deterministic: edge i of
// a (scale, edgefactor, seed) instance is a pure function of (seed, i), so
// any number of workers produce the identical list.
package generator

import (
	"fmt"
	"runtime"
	"sync"

	"semibfs/internal/edgelist"
	"semibfs/internal/rng"
)

// Graph500 initiator probabilities.
const (
	InitiatorA = 0.57
	InitiatorB = 0.19
	InitiatorC = 0.19
	// InitiatorD = 1 - A - B - C = 0.05
)

// DefaultEdgeFactor is the Graph500 edge factor: M = EdgeFactor * N.
const DefaultEdgeFactor = 16

// Config parameterizes one benchmark graph instance.
type Config struct {
	// Scale is the base-2 logarithm of the number of vertices.
	Scale int
	// EdgeFactor is the ratio of edges to vertices (16 in Graph500).
	EdgeFactor int
	// Seed makes the instance reproducible.
	Seed uint64
	// A, B, C are the Kronecker initiator probabilities; D is implied.
	// Zero values select the Graph500 defaults.
	A, B, C float64
	// Workers bounds generation parallelism; 0 selects GOMAXPROCS.
	Workers int
}

// WithDefaults returns c with zero fields replaced by Graph500 defaults.
func (c Config) WithDefaults() Config {
	if c.EdgeFactor == 0 {
		c.EdgeFactor = DefaultEdgeFactor
	}
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = InitiatorA, InitiatorB, InitiatorC
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports an error for out-of-range parameters.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Scale > 40 {
		return fmt.Errorf("generator: scale %d out of range [1,40]", c.Scale)
	}
	cc := c.WithDefaults()
	if cc.EdgeFactor < 1 {
		return fmt.Errorf("generator: edge factor %d < 1", c.EdgeFactor)
	}
	d := 1 - cc.A - cc.B - cc.C
	if cc.A < 0 || cc.B < 0 || cc.C < 0 || d < 0 {
		return fmt.Errorf("generator: invalid initiator (%v,%v,%v)", cc.A, cc.B, cc.C)
	}
	return nil
}

// NumVertices returns N = 2^Scale.
func (c Config) NumVertices() int64 { return int64(1) << uint(c.Scale) }

// NumEdges returns M = EdgeFactor * N.
func (c Config) NumEdges() int64 {
	return c.NumVertices() * int64(c.WithDefaults().EdgeFactor)
}

// Edge returns edge number i of the instance. It is a pure function of
// (config, i) and therefore safe to call from any number of goroutines.
func (c Config) Edge(i int64) edgelist.Edge {
	p := c.prepare()
	return p.edge(i)
}

// prepared is everything about an instance that does not depend on the
// edge number, derived once per Generate, GenerateRange or Edge call.
type prepared struct {
	scale   int
	seedMix uint64
	// ab = A+B splits the row choice; aNorm and cNorm are the column
	// thresholds within the upper and lower half.
	ab, aNorm, cNorm float64
	perm             permutation
}

func (c Config) prepare() prepared {
	cc := c.WithDefaults()
	ab := cc.A + cc.B
	return prepared{
		scale:   cc.Scale,
		seedMix: rng.Mix64(cc.Seed),
		ab:      ab,
		aNorm:   cc.A / ab,
		cNorm:   cc.C / (1 - ab),
		perm:    newPermutation(cc.NumVertices(), cc.Seed),
	}
}

func (p *prepared) edge(i int64) edgelist.Edge {
	// A private SplitMix64 stream per edge keeps generation order-free.
	g := rng.NewSplitMix64(p.seedMix ^ rng.Mix64(uint64(i)+0x8000000000000000))
	var u, v int64
	for bit := 0; bit < p.scale; bit++ {
		r := g.Next()
		// Two independent uniforms from one 64-bit draw.
		r1 := float64(r>>40) / (1 << 24)
		r2 := float64(r&0xFFFFFF) / (1 << 24)
		uBit := r1 > p.ab
		thresh := p.aNorm
		if uBit {
			thresh = p.cNorm
		}
		vBit := r2 > thresh
		u = u<<1 | boolToInt64(uBit)
		v = v<<1 | boolToInt64(vBit)
	}
	// Permute the vertex labels and randomly orient the tuple, as the
	// Graph500 spec requires.
	u, v = p.perm.apply(u), p.perm.apply(v)
	if g.Next()&1 == 1 {
		u, v = v, u
	}
	return edgelist.Edge{U: u, V: v}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// permutation is a seed-keyed bijection of [0, n) for a power-of-two n
// (it always is: n = 2^Scale). It composes three rounds of add-key,
// multiply-by-odd, and xorshift-right steps, each of which is individually
// invertible modulo 2^bits, so the composition is a pseudorandom
// permutation of the whole domain.
type permutation struct {
	mask  uint64
	shift uint
	keys  [3]uint64
}

func newPermutation(n int64, seed uint64) permutation {
	bits := uint(0)
	for int64(1)<<bits < n {
		bits++
	}
	p := permutation{mask: uint64(1)<<bits - 1, shift: bits/2 + 1}
	if p.shift >= bits {
		p.shift = 1
	}
	for round := range p.keys {
		p.keys[round] = rng.Mix64(seed + 0x1000*uint64(round) + 7)
	}
	return p
}

func (p *permutation) apply(x int64) int64 {
	v := uint64(x)
	for _, key := range p.keys {
		v = (v + key) & p.mask
		v = (v * (key | 1)) & p.mask
		v ^= v >> p.shift
	}
	return int64(v & p.mask)
}

// Generate materializes the whole edge list in DRAM using cfg.Workers
// goroutines.
func Generate(cfg Config) (*edgelist.List, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cc := cfg.WithDefaults()
	p := cc.prepare()
	m := cc.NumEdges()
	edges := make([]edgelist.Edge, m)
	var wg sync.WaitGroup
	workers := cc.Workers
	block := (m + int64(workers) - 1) / int64(workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * block
		hi := lo + block
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				edges[i] = p.edge(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return &edgelist.List{NumVertices: cc.NumVertices(), Edges: edges}, nil
}

// GenerateRange fills out with edges [lo, lo+len(out)) of the instance.
// It is the streaming building block used when the edge list is generated
// directly into an NVM store without ever residing fully in DRAM.
func GenerateRange(cfg Config, lo int64, out []edgelist.Edge) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	p := cfg.prepare()
	m := cfg.NumEdges()
	if lo < 0 || lo+int64(len(out)) > m {
		return fmt.Errorf("generator: range [%d,%d) outside [0,%d)",
			lo, lo+int64(len(out)), m)
	}
	for i := range out {
		out[i] = p.edge(lo + int64(i))
	}
	return nil
}

package dyn

import "semibfs/internal/edgelist"

// UpdateStream generates state-changing edge toggles against a DRAM
// multiset mirror of the evolving graph: absent pairs are inserted,
// singleton pairs deleted, and self-loops / duplicated base edges
// skipped, so every emitted update changes adjacency. The update sweep
// and `graph500 -updates` share it, so both see the same seeded stream.
type UpdateStream struct {
	n   int64
	adj []map[int64]int
	rng uint64
}

// NewUpdateStream mirrors list and seeds the toggle generator.
func NewUpdateStream(list *edgelist.List, seed uint64) *UpdateStream {
	us := &UpdateStream{n: list.NumVertices, adj: make([]map[int64]int, list.NumVertices), rng: seed}
	for v := range us.adj {
		us.adj[v] = map[int64]int{}
	}
	for _, e := range list.Edges {
		if e.U == e.V {
			continue
		}
		us.adj[e.U][e.V]++
		us.adj[e.V][e.U]++
	}
	return us
}

func (us *UpdateStream) next() int64 {
	us.rng = us.rng*6364136223846793005 + 1442695040888963407
	return int64(us.rng>>33) % us.n
}

// Batch returns the next size effective updates and applies them to the
// mirror.
func (us *UpdateStream) Batch(size int) []Update {
	var out []Update
	for len(out) < size {
		u := us.next()
		v := us.next()
		if u == v || us.adj[u][v] > 1 {
			continue
		}
		up := Update{U: u, V: v, Del: us.adj[u][v] == 1}
		if up.Del {
			delete(us.adj[u], v)
			delete(us.adj[v], u)
		} else {
			us.adj[u][v] = 1
			us.adj[v][u] = 1
		}
		out = append(out, up)
	}
	return out
}

// Unapply rolls the mirror back over a batch that never became durable
// (its WAL append was cut), so the stream stays in step with the graph.
func (us *UpdateStream) Unapply(batch []Update) {
	for i := len(batch) - 1; i >= 0; i-- {
		up := batch[i]
		if up.Del {
			us.adj[up.U][up.V] = 1
			us.adj[up.V][up.U] = 1
		} else {
			delete(us.adj[up.U], up.V)
			delete(us.adj[up.V], up.U)
		}
	}
}

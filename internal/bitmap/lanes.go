// Lane sets for batched multi-source BFS (MS-BFS). A Lanes value keeps one
// 64-bit word per vertex; bit l of vertex v's word says "search lane l has
// v in this set". With B <= 64 concurrent searches a single word-level
// AND/OR advances all of them at once, which is what lets one backward-graph
// sweep (or one pass of NVM forward reads) serve a whole batch.

package bitmap

import "math/bits"

// MaxLanes is the widest batch a lane word can hold.
const MaxLanes = 64

// LaneMask returns a word with the low `lanes` bits set — the active-lane
// mask for a batch of that width.
func LaneMask(lanes int) uint64 {
	if lanes >= MaxLanes {
		return ^uint64(0)
	}
	return (1 << uint(lanes)) - 1
}

// Lanes is a fixed-size lane set: one uint64 of per-search membership bits
// per vertex. The zero value is empty; use NewLanes to size one.
type Lanes struct {
	words []uint64
}

// NewLanes returns a lane set for n vertices, all lanes clear.
func NewLanes(n int) *Lanes { return &Lanes{words: make([]uint64, n)} }

// Len returns the number of vertices.
func (l *Lanes) Len() int { return len(l.words) }

// Word returns vertex v's lane word.
func (l *Lanes) Word(v int) uint64 { return l.words[v] }

// SetWord overwrites vertex v's lane word.
func (l *Lanes) SetWord(v int, w uint64) { l.words[v] = w }

// Set sets lane bit `lane` of vertex v.
func (l *Lanes) Set(v, lane int) { l.words[v] |= 1 << uint(lane) }

// Test reports whether lane bit `lane` of vertex v is set.
func (l *Lanes) Test(v, lane int) bool { return l.words[v]&(1<<uint(lane)) != 0 }

// Or ORs mask into vertex v's word and returns the bits newly set.
func (l *Lanes) Or(v int, mask uint64) uint64 {
	old := l.words[v]
	l.words[v] = old | mask
	return mask &^ old
}

// AndNot returns frontier-minus-visited for vertex v against a visited set:
// the lanes present in l but absent in vis, without modifying either.
func (l *Lanes) AndNot(v int, vis uint64) uint64 { return l.words[v] &^ vis }

// ResetRange clears the words of vertices [lo, hi).
func (l *Lanes) ResetRange(lo, hi int) {
	for v := lo; v < hi; v++ {
		l.words[v] = 0
	}
}

// CountRange returns the total number of set lane bits over vertices
// [lo, hi) — the aggregate frontier occupancy the batched alpha/beta
// direction rule feeds on.
func (l *Lanes) CountRange(lo, hi int) int64 {
	var c int64
	for v := lo; v < hi; v++ {
		c += int64(bits.OnesCount64(l.words[v]))
	}
	return c
}

// Words exposes the backing words (one per vertex) for bulk phase-boundary
// operations. Callers must not resize the slice.
func (l *Lanes) Words() []uint64 { return l.words }

// Package bitmap provides dense bit sets used as BFS status data: the
// visited map and the frontier/next bitmaps of the bottom-up direction.
//
// The sets carry no synchronization: a run's simulated workers execute one
// after another on one goroutine, so every update is a plain load and store.
package bitmap

import "math/bits"

const wordBits = 64

// Bitmap is a fixed-size bit set. The zero value is an empty, zero-length
// set; use New to size one.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a Bitmap able to hold n bits, all initially clear.
func New(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set can hold.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i/wordBits] |= 1 << uint(i%wordBits) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i/wordBits] &^= 1 << uint(i%wordBits) }

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether this call changed it (true
// means the bit was clear and the caller claimed it).
func (b *Bitmap) TestAndSet(i int) bool {
	w := &b.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	return true
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitmap) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	c := 0
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if loWord == hiWord {
		return bits.OnesCount64(b.words[loWord] & loMask & hiMask)
	}
	c += bits.OnesCount64(b.words[loWord] & loMask)
	for w := loWord + 1; w < hiWord; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	c += bits.OnesCount64(b.words[hiWord] & hiMask)
	return c
}

// ForEachSet calls fn for every set bit i in [lo, hi), in increasing order.
func (b *Bitmap) ForEachSet(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	for w := lo / wordBits; w <= (hi-1)/wordBits && w < len(b.words); w++ {
		word := b.words[w]
		if word == 0 {
			continue
		}
		base := w * wordBits
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			if i >= hi {
				break
			}
			if i >= lo {
				fn(i)
			}
			word &= word - 1
		}
	}
}

// CopyFrom copies src's bits into b. The bitmaps must be the same length.
func (b *Bitmap) CopyFrom(src *Bitmap) {
	copy(b.words, src.words)
}

// Words exposes the raw backing words. Callers must not resize the slice.
// It exists so that the bottom-up kernel can scan 64 vertices per load.
func (b *Bitmap) Words() []uint64 { return b.words }

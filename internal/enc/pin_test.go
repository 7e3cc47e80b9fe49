package enc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"semibfs/internal/nvm"
)

// The decoder pin: seeded lists whose deltas cover every varint length
// from 1 to 10 bytes with both signs, a two-byte count header, and
// malformed streams (header and delta overflow, truncation at every byte,
// a count the body does not hold) are streamed through the Decoder in
// reads of every length from 1 to 12 bytes, 16 and 4096 — so a header or
// delta is split at every offset — once to the end and once stopping after
// each neighbor. Every run's neighbors, the bytes consumed through the
// last one the consumer took, and the outcome's class must reproduce these
// constants.

type decoderPin struct {
	runs    int
	classes string // runs per outcome class
	sum     uint64 // every run's neighbors, consumed bytes and class
}

var pinnedDecoder = decoderPin{
	runs:    85330,
	classes: "corrupt=56 done=84 error=0 stopped=82096 truncated=3094 ",
	sum:     0x36cd16871848adde,
}

var pinChunks = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 4096}

// pinDelta returns the delta whose zig-zag encoding is ux.
func pinDelta(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

// pinLengthDeltas returns deltas at both edges of every varint length:
// zig-zag values lo, lo+1, hi-1 and hi of length L, alternating signs.
func pinLengthDeltas() []int64 {
	var ds []int64
	for l := 1; l <= 10; l++ {
		lo := uint64(0)
		if l > 1 {
			lo = 1 << (7 * (l - 1))
		}
		hi := ^uint64(0)
		if l < 10 {
			hi = 1<<(7*l) - 1
		}
		ds = append(ds, pinDelta(lo), pinDelta(lo+1), pinDelta(hi-1), pinDelta(hi))
	}
	return ds
}

// pinRandomDeltas returns n deltas of seeded random length and sign.
func pinRandomDeltas(rng *rand.Rand, n int) []int64 {
	ds := make([]int64, n)
	for i := range ds {
		l := 1 + rng.Intn(10)
		ux := rng.Uint64()
		if l < 10 {
			ux &= 1<<(7*l) - 1
		}
		if l > 1 {
			ux |= 1 << (7 * (l - 1)) // l bytes, not fewer
		}
		ds[i] = pinDelta(ux)
	}
	return ds
}

type pinCase struct {
	name string
	src  int64
	data []byte
}

// pinCases returns the pinned streams.
func pinCases() []pinCase {
	list := func(src int64, ds []int64) []byte {
		nbs := make([]int64, len(ds))
		prev := src
		for i, d := range ds {
			prev += d
			nbs[i] = prev
		}
		return AppendList(nil, src, nbs)
	}
	rng := rand.New(rand.NewSource(45))
	lengths := list(17, pinLengthDeltas())
	cases := []pinCase{
		{"empty", 3, list(3, nil)},
		{"lengths", 17, lengths},
		{"random-a", -5, list(-5, pinRandomDeltas(rng, 13))},
		{"random-b", 1 << 40, list(1<<40, pinRandomDeltas(rng, 29))},
		{"random-c", 0, list(0, pinRandomDeltas(rng, 7))},
	}
	// A two-byte count header over short deltas, long ones at the end.
	wide := make([]int64, 150)
	for i := range wide {
		wide[i] = pinDelta(uint64(rng.Intn(300)))
	}
	wide = append(wide, pinRandomDeltas(rng, 6)...)
	cases = append(cases, pinCase{"wide-header", 99, list(99, wide)})

	// Malformed streams.
	overflow := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	tenth := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	body := list(8, []int64{1, -300, 70000})[1:]
	cases = append(cases,
		pinCase{"header-overflow", 0, overflow},
		pinCase{"header-tenth-byte", 0, tenth},
		pinCase{"delta-overflow", 8, append(append([]byte{5}, body...), overflow...)},
		pinCase{"delta-tenth-byte", 8, append(append([]byte{5}, body...), tenth...)},
		pinCase{"count-overrun", 8, append([]byte{5}, body...)},
	)
	for i := 1; i < len(lengths); i++ {
		cases = append(cases, pinCase{fmt.Sprintf("truncated-%d", i), 17, lengths[:i]})
	}
	return cases
}

// pinClass names a decode outcome.
func pinClass(err error, stopped, done bool) string {
	switch {
	case err != nil && errors.Is(err, nvm.ErrCorrupt):
		return "corrupt"
	case err != nil:
		return "error"
	case stopped:
		return "stopped"
	case done:
		return "done"
	}
	return "truncated"
}

// pinDecode streams data through a Decoder in reads of chunk bytes,
// carrying an unconsumed partial varint into the next read the way
// semiext's tail scanner does, decoding batches of at most batch neighbors,
// and stops after stop neighbors (stop < 0: never). It returns the
// neighbors the consumer took, the bytes consumed through the last of
// them, and the outcome's class.
func pinDecode(data []byte, src int64, chunk, batch, stop int) (nbs []int64, consumed int, class string) {
	var d Decoder
	d.Reset(src)
	out := make([]int64, batch)
	var carry []byte
	for pos := 0; !d.Done() && pos < len(data); {
		end := min(pos+chunk, len(data))
		carry = append(carry, data[pos:end]...)
		pos = end
		used := 0
		for {
			got, n, err := d.Next(carry[used:], out)
			for i, nb := range got {
				if nbs = append(nbs, nb); len(nbs) == stop {
					return nbs, consumed + used + d.Through(carry[used:], i+1), pinClass(nil, true, false)
				}
			}
			if err != nil {
				return nbs, consumed + used + n, pinClass(err, false, false)
			}
			used += n
			if len(got) < batch || d.Done() {
				break
			}
		}
		consumed += used
		carry = carry[:copy(carry, carry[used:])]
	}
	return nbs, consumed, pinClass(nil, false, d.Done())
}

// runDecoderPin runs every pinned case at every chunk length and stop,
// decoding batches of at most batch neighbors.
func runDecoderPin(t *testing.T, batch int) decoderPin {
	h := fnv.New64a()
	var pin decoderPin
	classes := map[string]int{}
	for _, c := range pinCases() {
		want, _, wantErr := DecodeList(c.data, c.src, nil)
		for _, chunk := range pinChunks {
			full, _, _ := pinDecode(c.data, c.src, chunk, batch, -1)
			for stop := -1; stop <= len(full); stop++ {
				if stop == 0 {
					continue
				}
				nbs, consumed, class := pinDecode(c.data, c.src, chunk, batch, stop)
				if wantErr == nil {
					for i, nb := range nbs {
						if nb != want[i] {
							t.Fatalf("%s chunk %d stop %d: neighbor %d = %d, DecodeList %d",
								c.name, chunk, stop, i, nb, want[i])
						}
					}
				}
				fmt.Fprintf(h, "%s %d %d %d %d %s", c.name, chunk, stop, len(nbs), consumed, class)
				for _, nb := range nbs {
					fmt.Fprintf(h, " %d", nb)
				}
				h.Write([]byte{'\n'})
				pin.runs++
				classes[class]++
			}
		}
	}
	for _, c := range []string{"corrupt", "done", "error", "stopped", "truncated"} {
		pin.classes += fmt.Sprintf("%s=%d ", c, classes[c])
	}
	pin.sum = h.Sum64()
	return pin
}

// TestDecoderPins holds every batch capacity to the pin: a batch boundary
// must not move a neighbor, a consumed byte or an outcome.
func TestDecoderPins(t *testing.T) {
	for _, batch := range []int{1, 3, 512} {
		if got := runDecoderPin(t, batch); got != pinnedDecoder {
			t.Errorf("batch %d: got  %#v\nwant %#v", batch, got, pinnedDecoder)
		}
	}
}

package enc

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"semibfs/internal/nvm"
)

// decodeAll streams data through the Decoder in chunks of chunkLen bytes,
// carrying partial varints across chunk boundaries the way the semiext
// tail scanner does, in batches of at most 5 neighbors.
func decodeAll(t *testing.T, data []byte, src int64, chunkLen int) []int64 {
	t.Helper()
	out, consumed, class := pinDecode(data, src, chunkLen, 5, -1)
	if class != "done" || consumed != len(data) {
		t.Fatalf("stream decode: %s after %d of %d bytes", class, consumed, len(data))
	}
	return out
}

func TestRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(src int64, raw []int64) bool {
		// Sorted ascending, as the forward build path stores them.
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		buf := AppendList(nil, src, raw)
		got, n, err := DecodeList(buf, src, nil)
		if err != nil || n != len(buf) {
			t.Logf("DecodeList err=%v consumed=%d/%d", err, n, len(buf))
			return false
		}
		if len(got) != len(raw) {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		// Streaming decoder must agree, at any chunking.
		for _, chunk := range []int{1, 3, 7, len(buf)} {
			if chunk <= 0 {
				continue
			}
			stream := decodeAll(t, buf, src, chunk)
			if len(stream) == 0 && len(raw) == 0 {
				continue
			}
			if !reflect.DeepEqual(stream, raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  int64
		nbs  []int64
	}{
		{"empty", 42, nil},
		{"single", 7, []int64{7}},
		{"single-far", 0, []int64{math.MaxInt64}},
		{"negative-first-delta", 1000, []int64{0, 1, 2}},
		{"extremes", 0, []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}},
		{"duplicates", 3, []int64{5, 5, 5, 5}},
		{"degree-desc-unsorted", 9, []int64{100, 50, 2, 88, 1}},
	}
	// Max-degree hub: every vertex in a 1<<16 graph points here.
	hub := make([]int64, 1<<16)
	for i := range hub {
		hub[i] = int64(i)
	}
	cases = append(cases, struct {
		name string
		src  int64
		nbs  []int64
	}{"max-degree-hub", 1 << 15, hub})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := AppendList(nil, tc.src, tc.nbs)
			if len(buf) > MaxEncodedLen(len(tc.nbs)) {
				t.Fatalf("encoded %d bytes > MaxEncodedLen %d", len(buf), MaxEncodedLen(len(tc.nbs)))
			}
			got, n, err := DecodeList(buf, tc.src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(buf))
			}
			if len(got) != len(tc.nbs) {
				t.Fatalf("got %d elements, want %d", len(got), len(tc.nbs))
			}
			for i := range tc.nbs {
				if got[i] != tc.nbs[i] {
					t.Fatalf("element %d: got %d want %d", i, got[i], tc.nbs[i])
				}
			}
			stream := decodeAll(t, buf, tc.src, 5)
			if len(stream) != len(tc.nbs) {
				t.Fatalf("stream: got %d elements, want %d", len(stream), len(tc.nbs))
			}
			for i := range tc.nbs {
				if stream[i] != tc.nbs[i] {
					t.Fatalf("stream element %d: got %d want %d", i, stream[i], tc.nbs[i])
				}
			}
		})
	}
}

func TestDecoderEarlyExit(t *testing.T) {
	nbs := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	buf := AppendList(nil, 0, nbs)
	var d Decoder
	d.Reset(0)
	got, n, err := d.Next(buf, make([]int64, 16))
	if err != nil || n != len(buf) || !reflect.DeepEqual(got, nbs) {
		t.Fatalf("Next: %v after %d/%d bytes, err %v", got, n, len(buf), err)
	}
	// A consumer that stops after the third neighbor has consumed the
	// header and three one-byte deltas.
	if through := d.Through(buf, 3); through != 4 {
		t.Fatalf("Through(3) = %d bytes, want 4", through)
	}
}

// TestDecoderVarintLengths drives the streaming decoder's inline path
// across every delta length it handles (1-4 bytes), the first length it
// hands to encoding/binary (5), both signs and the values at each length's
// edges, whole and at chunkings that leave fewer than four bytes behind a
// delta.
func TestDecoderVarintLengths(t *testing.T) {
	var nbs []int64
	prev := int64(0)
	for bytes := 1; bytes <= 5; bytes++ {
		lo, hi := int64(1)<<(7*(bytes-1))>>1, int64(1)<<(7*bytes)>>1 // |delta| in [lo, hi)
		for _, d := range []int64{lo, lo + 1, (lo + hi) / 2, hi - 1, -lo - 1, -hi} {
			prev += d
			nbs = append(nbs, prev)
		}
	}
	buf := AppendList(nil, 0, nbs)
	want, _, err := DecodeList(buf, 0, nil)
	if err != nil || !reflect.DeepEqual(want, nbs) {
		t.Fatalf("DecodeList: %v, %v", want, err)
	}
	for _, chunk := range []int{1, 2, 3, 4, 5, 6, 8, len(buf)} {
		if got := decodeAll(t, buf, 0, chunk); !reflect.DeepEqual(got, nbs) {
			t.Fatalf("chunk %d: got %v want %v", chunk, got, nbs)
		}
	}
	// A stop after 7 neighbors consumes the header and the first 7 deltas,
	// which encode as the first 7 neighbors do under a one-byte count.
	for _, chunk := range []int{1, 4, len(buf)} {
		got, consumed, class := pinDecode(buf, 0, chunk, 3, 7)
		if want := len(AppendList(nil, 0, nbs[:7])); class != "stopped" || consumed != want || !reflect.DeepEqual(got, nbs[:7]) {
			t.Fatalf("chunk %d: %s after %d bytes with %v, want a stop after 7 neighbors and %d bytes", chunk, class, consumed, got, want)
		}
	}
}

func TestDecodeListCorrupt(t *testing.T) {
	good := AppendList(nil, 5, []int64{1, 9, 200, 5000})
	cases := map[string][]byte{
		"empty":             {},
		"truncated-header":  {0x80},
		"truncated-body":    good[:len(good)-1],
		"count-overrun":     {0xff, 0x01}, // count=255, no bytes follow
		"overflow-varint":   append([]byte{1}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"huge-count-header": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := DecodeList(data, 0, nil); !errors.Is(err, nvm.ErrCorrupt) {
				t.Fatalf("want nvm.ErrCorrupt, got %v", err)
			}
		})
	}
}

// FuzzVarintDecode holds the batch decoder to DecodeList on arbitrary
// bytes, at a chunk length and batch capacity the fuzzer picks (chunks of
// four bytes and more reach the branchless fast path), and a stop after k
// neighbors to exactly the bytes through the k-th delta.
func FuzzVarintDecode(f *testing.F) {
	f.Add([]byte{}, int64(0), uint16(3), uint16(1), uint16(0))
	f.Add([]byte{0}, int64(7), uint16(3), uint16(4), uint16(0))
	f.Add(AppendList(nil, 3, []int64{1, 2, 3}), int64(3), uint16(3), uint16(2), uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(0), uint16(5), uint16(8), uint16(0))
	rng := rand.New(rand.NewSource(1))
	big := make([]int64, 300)
	for i := range big {
		big[i] = rng.Int63n(1 << 30)
	}
	sort.Slice(big, func(i, j int) bool { return big[i] < big[j] })
	f.Add(AppendList(nil, 12, big), int64(12), uint16(4096), uint16(512), uint16(150))
	f.Add(AppendList(nil, 12, big), int64(12), uint16(7), uint16(13), uint16(299))
	// Degree-ordered (unsorted) neighbors: deltas of random length and sign.
	rng.Shuffle(len(big), func(i, j int) { big[i], big[j] = big[j], big[i] })
	f.Add(AppendList(nil, 12, big), int64(12), uint16(64), uint16(40), uint16(77))

	f.Fuzz(func(t *testing.T, data []byte, src int64, chunkSel, batchSel, stopSel uint16) {
		// DecodeList must either succeed or surface nvm.ErrCorrupt — never
		// panic, never OOM on a hostile count header.
		got, n, err := DecodeList(data, src, nil)
		if err != nil {
			if !errors.Is(err, nvm.ErrCorrupt) {
				t.Fatalf("DecodeList error does not wrap nvm.ErrCorrupt: %v", err)
			}
		} else {
			if n > len(data) {
				t.Fatalf("consumed %d > %d input bytes", n, len(data))
			}
			// Anything that decodes must survive an encode→decode round trip
			// (varints aren't canonical, so byte equality is not required).
			re := AppendList(nil, src, got)
			back, m, err2 := DecodeList(re, src, nil)
			if err2 != nil || m != len(re) || !slices.Equal(back, got) {
				t.Fatalf("re-decode: %v after %d/%d bytes, err %v; want %v", back, m, len(re), err2, got)
			}
		}

		// The batch decoder must agree with DecodeList: a list decodes to
		// its end exactly when DecodeList accepts it, to the same neighbors
		// and bytes; anything else is truncated or ErrCorrupt.
		chunk, batch := 1+int(chunkSel)%8192, 1+int(batchSel)%1024
		stream, consumed, class := pinDecode(data, src, chunk, batch, -1)
		switch {
		case class == "error":
			t.Fatalf("chunk %d batch %d: stream error does not wrap nvm.ErrCorrupt", chunk, batch)
		case (class == "done") != (err == nil):
			t.Fatalf("chunk %d batch %d: stream %s, DecodeList err %v", chunk, batch, class, err)
		case err == nil && (consumed != n || !slices.Equal(stream, got)):
			t.Fatalf("chunk %d batch %d: stream %v after %d bytes, DecodeList %v after %d", chunk, batch, stream, consumed, got, n)
		}
		if len(stream) == 0 {
			return
		}

		// A stop after k neighbors consumes the header and k deltas.
		k := 1 + int(stopSel)%len(stream)
		_, through := binary.Uvarint(data)
		for i := 0; i < k; i++ {
			_, m := binary.Varint(data[through:])
			through += m
		}
		stopped, consumed, class := pinDecode(data, src, chunk, batch, k)
		if class != "stopped" || consumed != through || !slices.Equal(stopped, stream[:k]) {
			t.Fatalf("chunk %d batch %d stop %d: %s after %d bytes with %v, want %d bytes and %v",
				chunk, batch, k, class, consumed, stopped, through, stream[:k])
		}
	})
}

var benchSink int64

// BenchmarkDecoder streams degree-ordered tail lists — neighbor IDs in no
// ID order, as a backward graph's NETAL sort leaves them, so delta lengths
// and signs are random — through the Decoder in 4 KiB chunks and batches
// of 512 neighbors, carrying split varints the way semiext's tail scanner
// does. Bytes are encoded bytes.
func BenchmarkDecoder(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var data []byte
	offs := []int{0}
	for v := int64(0); v < 256; v++ {
		nbs := make([]int64, 8+rng.Intn(1500))
		for i := range nbs {
			nbs[i] = rng.Int63n(1 << 20)
		}
		data = AppendList(data, v<<12, nbs)
		offs = append(offs, len(data))
	}
	const chunk = 4096
	buf := make([]byte, chunk)
	out := make([]int64, chunk/8)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for v := 0; v+1 < len(offs); v++ {
			var d Decoder
			d.Reset(int64(v) << 12)
			list := data[offs[v]:offs[v+1]]
			carried := 0
			for off := 0; off < len(list) && !d.Done(); {
				n := copy(buf[carried:], list[off:])
				off += n
				read := buf[:carried+n]
				used := 0
				for {
					nbs, m, err := d.Next(read[used:], out)
					if err != nil {
						b.Fatal(err)
					}
					for _, nb := range nbs {
						sum += nb
					}
					used += m
					if len(nbs) < len(out) || d.Done() {
						break
					}
				}
				carried = copy(buf, read[used:])
			}
		}
	}
	benchSink = sum
}

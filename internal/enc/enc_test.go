package enc

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"semibfs/internal/nvm"
)

// decodeAll runs the streaming Decoder over data split into chunks of
// chunkLen bytes, carrying partial varints across chunk boundaries the
// way the semiext tail scanner does.
func decodeAll(t *testing.T, data []byte, src int64, chunkLen int) []int64 {
	t.Helper()
	var d Decoder
	d.Reset(src)
	var out []int64
	var carry []byte
	for pos := 0; pos < len(data) && !d.Done(); {
		end := pos + chunkLen
		if end > len(data) {
			end = len(data)
		}
		carry = append(carry, data[pos:end]...)
		pos = end
		n, _, err := d.Decode(carry, func(nb int64) bool {
			out = append(out, nb)
			return true
		})
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if n == 0 && d.Done() {
			break
		}
		carry = carry[:copy(carry, carry[n:])]
	}
	if !d.Done() {
		t.Fatalf("stream decode: exhausted %d bytes with %d elements outstanding", len(data), d.remaining)
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
	var got []int64
	n, stopped, err := d.Decode(buf, func(nb int64) bool {
		got = append(got, nb)
		return len(got) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("expected emit to stop the stream")
	}
	if len(got) != 3 || n >= len(buf) {
		t.Fatalf("got %v after %d/%d bytes", got, n, len(buf))
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
	var d Decoder
	d.Reset(0)
	if _, stopped, err := d.Decode(buf, func(int64) bool { return d.Emitted() < 7 }); err != nil || !stopped || d.Emitted() != 7 {
		t.Fatalf("stopped=%v err=%v emitted=%d, want a stop after 7", stopped, err, d.Emitted())
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

func FuzzVarintDecode(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0}, int64(7))
	f.Add(AppendList(nil, 3, []int64{1, 2, 3}), int64(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(0))
	rng := rand.New(rand.NewSource(1))
	big := make([]int64, 300)
	for i := range big {
		big[i] = rng.Int63n(1 << 30)
	}
	sort.Slice(big, func(i, j int) bool { return big[i] < big[j] })
	f.Add(AppendList(nil, 12, big), int64(12))

	f.Fuzz(func(t *testing.T, data []byte, src int64) {
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
			if err2 != nil || m != len(re) {
				t.Fatalf("re-decode: err=%v consumed=%d/%d", err2, m, len(re))
			}
			if len(back) != len(got) {
				t.Fatalf("re-decode produced %d elements, want %d", len(back), len(got))
			}
			for i := range got {
				if back[i] != got[i] {
					t.Fatalf("re-decode element %d: %d != %d", i, back[i], got[i])
				}
			}
		}

		// The streaming decoder must agree with DecodeList on both the
		// error class and, on success, the decoded values.
		var d Decoder
		d.Reset(src)
		var stream []int64
		pos, guard := 0, 0
		var carry []byte
		var streamErr error
		for pos < len(data) && !d.Done() {
			end := pos + 3
			if end > len(data) {
				end = len(data)
			}
			carry = append(carry, data[pos:end]...)
			pos = end
			n, _, err := d.Decode(carry, func(nb int64) bool {
				stream = append(stream, nb)
				return true
			})
			if err != nil {
				streamErr = err
				break
			}
			carry = carry[:copy(carry, carry[n:])]
			if guard++; guard > len(data)+8 {
				t.Fatal("stream decode failed to make progress")
			}
		}
		if streamErr != nil && !errors.Is(streamErr, nvm.ErrCorrupt) {
			t.Fatalf("stream error does not wrap nvm.ErrCorrupt: %v", streamErr)
		}
		if err == nil && streamErr == nil && d.Done() {
			if len(stream) != len(got) {
				t.Fatalf("stream decoded %d elements, DecodeList %d", len(stream), len(got))
			}
			for i := range got {
				if stream[i] != got[i] {
					t.Fatalf("stream element %d: %d != %d", i, stream[i], got[i])
				}
			}
		}
	})
}

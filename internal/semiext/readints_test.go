package semiext

import (
	"fmt"
	"testing"

	"semibfs/internal/numa"
	"semibfs/internal/nvm"
)

// buildInt64Stack assembles one BuildStack permutation over an in-memory
// base, populated with vals via writeInt64s.
func buildInt64Stack(t *testing.T, chunk, replicas int, cached bool, vals []int64) nvm.Storage {
	t.Helper()
	spec := nvm.StackSpec{
		Name:  "readints",
		Chunk: chunk,
		Base: func(name string, chunk int) (nvm.Storage, error) {
			return nvm.NewNamedMemStore(name, nil, chunk), nil
		},
		Checksum: true,
		Replicas: replicas,
	}
	if cached {
		spec.Cache = nvm.NewPageCache(int64(64*chunk), chunk, numa.CostModel{})
	}
	st, err := nvm.BuildStack(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := writeInt64s(st, nil, vals); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReadInt64sEdgeCases exercises the decoder's boundary behavior — a
// read whose byte range straddles chunk boundaries at unaligned offsets,
// a tail shorter than the scratch buffer, the final element alone, and a
// range past the end of the store — against every stack permutation
// (mirror on/off × cache on/off, checksums always on so block rounding is
// in play).
func TestReadInt64sEdgeCases(t *testing.T) {
	// chunk = 8 elements; 37 elements = 296 bytes, deliberately not a
	// multiple of the chunk so the last read is short.
	const chunk = 64
	const n = 37
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)*1_000_003 - 500 // spread over negatives too
	}

	cases := []struct {
		name    string
		elemOff int64
		count   int64
		wantErr bool
	}{
		// [40, 200): crosses chunk boundaries 64, 128, 192 mid-element
		// stride, so every inner read is offset-unaligned.
		{"straddles-chunks", 5, 20, false},
		// Whole store: the final read covers only 296-256 = 40 bytes,
		// shorter than the scratch buffer.
		{"short-tail", 0, n, false},
		{"exact-last-element", n - 1, 1, false},
		{"single-mid-element", 9, 1, false},
		{"past-end", n - 2, 4, true},
		{"empty-range", 3, 0, false},
	}

	for _, replicas := range []int{1, 2} {
		for _, cached := range []bool{false, true} {
			st := buildInt64Stack(t, chunk, replicas, cached, vals)
			for _, tc := range cases {
				name := fmt.Sprintf("mirror=%d/cache=%v/%s", replicas, cached, tc.name)
				t.Run(name, func(t *testing.T) {
					out := make([]int64, tc.count)
					scratch := make([]byte, chunk)
					err := readInt64s(st, nil, tc.elemOff, tc.count, out, &scratch)
					if tc.wantErr {
						if err == nil {
							t.Fatal("read past end succeeded")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					for i, got := range out {
						if want := vals[tc.elemOff+int64(i)]; got != want {
							t.Fatalf("element %d = %d, want %d", tc.elemOff+int64(i), got, want)
						}
					}
				})
			}
		}
	}
}

// BenchmarkReadInt64s guards the satellite fix: the scratch buffer is
// grown once to the widest span and reused, so steady-state reads through
// a plain (uncached, unchecksummed) stack allocate nothing.
func BenchmarkReadInt64s(b *testing.B) {
	const n = 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	st := nvm.NewNamedMemStore("bench", nil, nvm.DefaultChunkSize)
	defer st.Close()
	if err := writeInt64s(st, nil, vals); err != nil {
		b.Fatal(err)
	}
	out := make([]int64, n)
	var scratch []byte
	// Warm up so the scratch reaches its steady-state size before
	// counting.
	if err := readInt64s(st, nil, 0, n, out, &scratch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary offset/length so chunk-straddling spans are in play.
		off := int64(i % 7)
		count := int64(n - 13 - i%5)
		if err := readInt64s(st, nil, off, count, out, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadInt64sNoSteadyStateAllocs pins the benchmark's property in a
// plain test so CI catches regressions without running benchmarks.
func TestReadInt64sNoSteadyStateAllocs(t *testing.T) {
	const n = 1024
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	st := nvm.NewNamedMemStore("allocs", nil, nvm.DefaultChunkSize)
	defer st.Close()
	if err := writeInt64s(st, nil, vals); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, n)
	var scratch []byte
	if err := readInt64s(st, nil, 0, n, out, &scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := readInt64s(st, nil, 3, n-7, out, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("readInt64s allocates %.1f objects per steady-state call, want 0", allocs)
	}
}

// TestStreamIndexedNeighborsNoSteadyStateAllocs: one indexed lookup on a
// warm plain stack — the 16-byte index bracket plus the value range —
// allocates nothing once the caller's buffers have reached size.
func TestStreamIndexedNeighborsNoSteadyStateAllocs(t *testing.T) {
	index := []int64{0, 3, 3, 40}
	value := make([]int64, 40)
	for i := range value {
		value[i] = int64(i) * 5
	}
	idx := nvm.NewNamedMemStore("allocs-idx", nil, nvm.DefaultChunkSize)
	defer idx.Close()
	val := nvm.NewNamedMemStore("allocs-val", nil, nvm.DefaultChunkSize)
	defer val.Close()
	if err := writeInt64s(idx, nil, index); err != nil {
		t.Fatal(err)
	}
	if err := writeInt64s(val, nil, value); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	var ids []int64
	var sum int64
	fn := func(nb int64) bool { sum += nb; return true }
	lookup := func() {
		n, err := StreamIndexedNeighbors(idx, val, nil, false, 2, 2, &scratch, &ids, 0, fn)
		if err != nil || n != 37 {
			t.Fatalf("streamed %d neighbors, err %v; want 37", n, err)
		}
	}
	lookup()
	if allocs := testing.AllocsPerRun(50, lookup); allocs > 0 {
		t.Fatalf("StreamIndexedNeighbors allocates %.1f objects per steady-state call, want 0", allocs)
	}
}

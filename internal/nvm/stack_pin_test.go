package nvm_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// The full-stack pin: one goroutine drives a seeded trace through
//
//	metrics → retry → async → cache → mirror (2 replicas, scrubbed) → checksum → faults → mem
//
// interleaving writes, demand reads, prefetches and FillRunAt runs with
// scrub catch-up, seeded transient and corrupt reads, the death of replica
// 1's media, one AsyncStore.Cancel and one cache Reset. Every read must
// return the last write's bytes or an error that classifies under the
// storage taxonomy. The bytes or error class of every read, the worker's
// clock, every nonzero counter of CollectStacks and every Device snapshot
// must reproduce these constants: which page the cache evicts, which
// replica serves a read, when the scrubber steps and what each device
// queues all feed them. Zero counters are left out, so dropping a counter
// that can only read zero does not move the pin.

type stackPin struct {
	clock   int64
	reads   uint64 // bytes and error classes of every read, in order
	layers  uint64 // nonzero CollectStacks counters
	devices uint64 // every Device snapshot
}

var pinnedStack = stackPin{199529849, 0x881076fffff38132, 0xff31d11c32866011, 0xbb82a55ca301096f}

const (
	stackPinBlock  = 128
	stackPinBlocks = 48
	stackPinOps    = 4000
	// stackPinCancelOp cancels the async pipeline, stackPinResetOp resets
	// the page cache.
	stackPinCancelOp = 2500
	stackPinResetOp  = 1500
)

// stackPinByte is the byte at offset off after the gen-th rewrite.
func stackPinByte(off int64, gen uint64) byte {
	return byte(rng.Mix64(gen<<40 ^ uint64(off)))
}

// errClass names the taxonomy class of a read error, or "" for none.
func errClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"dead", nvm.ErrDeviceDead},
		{"power", nvm.ErrPowerCut},
		{"corrupt", nvm.ErrCorrupt},
		{"transient", nvm.ErrTransient},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return ""
}

func runStackPin(t *testing.T) (stackPin, string, string) {
	t.Helper()
	devs, route := nvm.NewReplicaDevices(nvm.ProfileIoDrive2, 2, 0)
	ff := faults.NewFactory(func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, route(name), chunk), nil
	}, faults.Config{
		Seed: 34, TransientRate: 0.05, CorruptRate: 0.03,
		DieAfterReads: 900, DieReplica: 2,
	})
	cache := nvm.NewPageCache(24*stackPinBlock, stackPinBlock, numa.CostModel{})
	stack, err := nvm.BuildStack(nvm.StackSpec{
		Name:       "pin",
		Chunk:      stackPinBlock,
		Base:       ff.Make,
		Checksum:   true,
		Replicas:   2,
		Mirror:     nvm.MirrorConfig{ScrubInterval: 40 * vtime.Microsecond},
		Cache:      cache,
		QueueDepth: 2,
		BaseChunk:  4 * stackPinBlock,
		// One retry, so some failures outlast it and surface.
		Retry: nvm.RetryPolicy{MaxAttempts: 2, BaseBackoff: 50 * vtime.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	pf := nvm.StackPrefetcher(stack)
	cs := nvm.StackCache(stack)
	var mirror *nvm.MirrorStore
	var async *nvm.AsyncStore
	nvm.WalkStack(stack, func(s nvm.Storage) {
		switch l := s.(type) {
		case *nvm.MirrorStore:
			mirror = l
		case *nvm.AsyncStore:
			async = l
		}
	})
	if mirror == nil || pf == nil || cs == nil || async == nil {
		t.Fatal("stack lacks a mirror, prefetcher, cache or async layer")
	}

	const size = stackPinBlocks * stackPinBlock
	model := make([]byte, size)
	for off := range model {
		model[off] = stackPinByte(int64(off), 0)
	}
	clock := vtime.NewClock(0)
	if err := stack.WriteAt(clock, model, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	g := rng.NewXoroshiro128(20140519)
	h := fnv.New64a()
	buf := make([]byte, 3*stackPinBlock)
	span := func(maxLen int64) (off, n int64) {
		off = int64(g.Uint64n(size))
		n = 1 + int64(g.Uint64n(uint64(maxLen)))
		return off, min(n, size-off)
	}
	classes := make(map[string]int)
	for op := 0; op < stackPinOps; op++ {
		switch op {
		case stackPinCancelOp:
			async.Cancel()
		case stackPinResetOp:
			cache.Reset()
		}
		// Compute between requests moves the worker past scrub steps.
		clock.Advance(vtime.Duration(g.Uint64n(uint64(20 * vtime.Microsecond))))
		switch kind := g.Uint64n(100); {
		case kind < 50:
			off, n := span(3 * stackPinBlock)
			if err := stack.ReadAt(clock, buf[:n], off); err != nil {
				c := errClass(err)
				if c == "" {
					t.Fatalf("op %d: read [%d,%d): unclassified error %v", op, off, off+n, err)
				}
				fmt.Fprintf(h, "%s@%d;", c, op)
				classes[c]++
				continue
			}
			for k, b := range buf[:n] {
				if want := model[off+int64(k)]; b != want {
					t.Fatalf("op %d: read [%d,%d): byte at %d is %#x, want %#x",
						op, off, off+n, off+int64(k), b, want)
				}
			}
			h.Write(buf[:n])
			classes["ok"]++
		case kind < 62:
			off, n := span(6 * stackPinBlock)
			pf.Prefetch(clock, off, n)
		case kind < 72:
			off, n := span(6 * stackPinBlock)
			blocks, runs, ready := cs.FillRunAt(clock.Now(), off, n)
			fmt.Fprintf(h, "run %d %d %d;", blocks, runs, int64(ready))
		default:
			// Whole blocks: a partial-block write reads the block back
			// to re-checksum it, and a fault on that read would leave
			// the replicas diverged.
			off := int64(g.Uint64n(stackPinBlocks-1)) * stackPinBlock
			n := int64(1+g.Uint64n(2)) * stackPinBlock
			for k := off; k < off+n; k++ {
				model[k] = stackPinByte(k, uint64(op)+1)
			}
			if err := stack.WriteAt(clock, model[off:off+n], off); err != nil {
				t.Fatalf("op %d: write [%d,%d): %v", op, off, off+n, err)
			}
		}
	}
	if h := mirror.Health(); h[1].State != nvm.ReplicaDead || h[0].State == nvm.ReplicaDead {
		t.Fatalf("replica states %v and %v, want replica 1 dead and replica 0 serving", h[0].State, h[1].State)
	}
	if st := mirror.MirrorStats(); st.ScrubbedBlocks == 0 || st.Failovers == 0 {
		t.Fatalf("the trace never scrubbed or never failed over: %+v", st)
	}
	if classes["ok"] == 0 || len(classes) == 1 {
		t.Fatalf("read outcomes %v: want both successes and surfaced errors", classes)
	}

	var layers strings.Builder
	for _, l := range nvm.CollectStacks(stack) {
		for _, c := range l.Counters {
			if c.Value != 0 {
				fmt.Fprintf(&layers, "%s.%s=%d\n", l.Kind, c.Name, c.Value)
			}
		}
	}
	var devices strings.Builder
	for i, d := range devs {
		fmt.Fprintf(&devices, "dev%d %+v\n", i, d.Snapshot())
	}
	sum := func(s string) uint64 {
		f := fnv.New64a()
		f.Write([]byte(s))
		return f.Sum64()
	}
	return stackPin{int64(clock.Now()), h.Sum64(), sum(layers.String()), sum(devices.String())},
		layers.String(), devices.String()
}

func TestStackPins(t *testing.T) {
	got, layers, devices := runStackPin(t)
	if got != pinnedStack {
		t.Errorf("got  %#v\nwant %#v\nlayers:\n%sdevices:\n%s", got, pinnedStack, layers, devices)
	}
}

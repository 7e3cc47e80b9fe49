package nvm_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// findMirror walks a built stack down to its mirror layer.
func findMirror(st nvm.Storage) *nvm.MirrorStore {
	for st != nil {
		if m, ok := st.(*nvm.MirrorStore); ok {
			return m
		}
		l, ok := st.(nvm.Layer)
		if !ok {
			return nil
		}
		st = l.Unwrap()
	}
	return nil
}

// TestConcurrentWriteReadScrubFullStack drives concurrent writers,
// readers, and a scrubber through the full metrics -> retry -> async ->
// cache -> mirror -> checksum stack under the race detector, with one
// replica's media dying partway through — the compaction write path's
// worst case. Invariants checked while racing: reads only ever observe a
// whole write (block reads are uniform), and the only tolerated errors
// are the corrupt/transient flavors a read racing a same-block rewrite
// can legitimately produce. After quiescing, every block must read back
// exactly as last written, served by the surviving replica.
func TestConcurrentWriteReadScrubFullStack(t *testing.T) {
	const (
		block   = 128
		nBlocks = 32
		writers = 4
		readers = 4
		rounds  = 150
	)
	ff := faults.NewFactory(func(name string, chunk int) (nvm.Storage, error) {
		return nvm.NewNamedMemStore(name, nil, chunk), nil
	}, faults.Config{Seed: 7, DieAfterReads: 200, DieReplica: 2})
	cache := nvm.NewPageCache(8*block, block, numa.CostModel{})
	stack, err := nvm.BuildStack(nvm.StackSpec{
		Name:     "conc",
		Chunk:    block,
		Base:     ff.Make,
		Checksum: true,
		Replicas: 2,
		Mirror: nvm.MirrorConfig{
			// Health demotion only on explicit device death: corrupt reads
			// racing same-block writes must not get replicas killed.
			SuspectAfter: 1 << 20,
			DeadAfter:    1 << 20,
		},
		Cache:      cache,
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	mirror := findMirror(stack)
	if mirror == nil {
		t.Fatal("no mirror layer in stack")
	}

	clock := vtime.NewClock(0)
	for b := 0; b < nBlocks; b++ {
		if err := stack.WriteAt(clock, bytes.Repeat([]byte{1}, block), int64(b)*block); err != nil {
			t.Fatalf("seed block %d: %v", b, err)
		}
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail = make(chan error, writers+readers+1)
	)
	// Writers own disjoint blocks, so each block has one writer and its
	// content is always some whole tag.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := vtime.NewClock(0)
			for r := 0; r < rounds; r++ {
				tag := byte(2 + (r % 200))
				for b := g; b < nBlocks; b += writers {
					if err := stack.WriteAt(c, bytes.Repeat([]byte{tag}, block), int64(b)*block); err != nil {
						fail <- fmt.Errorf("writer %d round %d block %d: %w", g, r, b, err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := vtime.NewClock(0)
			buf := make([]byte, block)
			for r := 0; !stop.Load(); r++ {
				b := (r*7 + g*13) % nBlocks
				err := stack.ReadAt(c, buf, int64(b)*block)
				if err != nil {
					if errors.Is(err, nvm.ErrCorrupt) || errors.Is(err, nvm.ErrTransient) {
						// A read racing a same-block rewrite can see fresh
						// data against a not-yet-updated CRC; the rewrite
						// settles and later reads succeed.
						continue
					}
					fail <- fmt.Errorf("reader %d block %d: %w", g, b, err)
					return
				}
				for i := 1; i < block; i++ {
					if buf[i] != buf[0] {
						fail <- fmt.Errorf("reader %d block %d: torn read (byte 0 = %d, byte %d = %d)", g, b, buf[0], i, buf[i])
						return
					}
				}
			}
		}(g)
	}
	// The scrubber races both: replica media dies under it mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := vtime.NewClock(0)
		for r := 0; r < rounds; r++ {
			mirror.ScrubPass(c)
		}
		stop.Store(true)
	}()
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// Replica 1's media died under load (DieAfterReads); the health
	// machine must have retired it without losing the logical store.
	if h := mirror.Health(); h[1].State != nvm.ReplicaDead {
		t.Fatalf("replica 1 state = %v, want dead (counters: %+v)", h[1].State, ff.TotalCounters())
	}
	// Quiesced: rewrite and verify every block through the cache and the
	// surviving replica.
	for b := 0; b < nBlocks; b++ {
		tag := byte(100 + b)
		if err := stack.WriteAt(clock, bytes.Repeat([]byte{tag}, block), int64(b)*block); err != nil {
			t.Fatalf("final write block %d: %v", b, err)
		}
	}
	buf := make([]byte, block)
	for b := 0; b < nBlocks; b++ {
		if err := stack.ReadAt(clock, buf, int64(b)*block); err != nil {
			t.Fatalf("final read block %d: %v", b, err)
		}
		if want := byte(100 + b); buf[0] != want || !bytes.Equal(buf, bytes.Repeat([]byte{want}, block)) {
			t.Fatalf("final block %d holds tag %d, want %d", b, buf[0], want)
		}
	}
	if st := mirror.MirrorStats(); st.ScrubbedBlocks == 0 {
		t.Fatal("scrubber never ran")
	}
}

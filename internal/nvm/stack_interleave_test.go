package nvm_test

import (
	"bytes"
	"testing"

	"semibfs/internal/faults"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// TestConcurrentWriteReadScrubFullStack interleaves writers, readers and
// a scrubber, each on its own clock, through the full metrics -> retry ->
// async -> cache -> mirror -> checksum stack, with one replica's media
// dying partway through — the compaction write path's worst case. A
// storage stack belongs to one goroutine, so a seeded schedule on this
// goroutine stands in for the callers. Every read must return exactly the
// block's last write, with no error: the death is absorbed by failover.
// Afterwards every block must read back as rewritten, served by the
// surviving replica.
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
		Name:       "interleave",
		Chunk:      block,
		Base:       ff.Make,
		Checksum:   true,
		Replicas:   2,
		Cache:      cache,
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	var mirror *nvm.MirrorStore
	nvm.WalkStack(stack, func(s nvm.Storage) {
		if m, ok := s.(*nvm.MirrorStore); ok {
			mirror = m
		}
	})
	if mirror == nil {
		t.Fatal("no mirror layer in stack")
	}

	clock := vtime.NewClock(0)
	tags := make([]byte, nBlocks)
	for b := range tags {
		tags[b] = 1
		if err := stack.WriteAt(clock, bytes.Repeat([]byte{1}, block), int64(b)*block); err != nil {
			t.Fatalf("seed block %d: %v", b, err)
		}
	}

	// Actors 0..writers-1 write, the next readers read, the last scrubs.
	// Writers own disjoint blocks and write one block a step; readers run
	// until the scrubber has made its passes.
	const scrubber = writers + readers
	clocks := make([]*vtime.Clock, scrubber+1)
	for i := range clocks {
		clocks[i] = vtime.NewClock(0)
	}
	written := make([]int, writers) // block writes done by each writer
	perRound := nBlocks / writers
	passes, reads := 0, make([]int, readers)
	buf := make([]byte, block)
	g := rng.NewXoroshiro128(7)
	for passes < rounds {
		a := int(g.Uint64n(scrubber + 1))
		switch {
		case a < writers:
			if written[a] == rounds*perRound {
				continue
			}
			r, b := written[a]/perRound, a+written[a]%perRound*writers
			tags[b] = byte(2 + r%200)
			if err := stack.WriteAt(clocks[a], bytes.Repeat([]byte{tags[b]}, block), int64(b)*block); err != nil {
				t.Fatalf("writer %d round %d block %d: %v", a, r, b, err)
			}
			written[a]++
		case a < scrubber:
			r := a - writers
			b := (reads[r]*7 + r*13) % nBlocks
			reads[r]++
			if err := stack.ReadAt(clocks[a], buf, int64(b)*block); err != nil {
				t.Fatalf("reader %d block %d: %v", r, b, err)
			}
			if want := bytes.Repeat([]byte{tags[b]}, block); !bytes.Equal(buf, want) {
				t.Fatalf("reader %d block %d: byte 0 = %d, want the last write's tag %d", r, b, buf[0], tags[b])
			}
		default:
			mirror.ScrubPass(clocks[a])
			passes++
		}
	}

	// Replica 1's media died under load (DieAfterReads); the health
	// machine must have retired it without losing the logical store.
	if h := mirror.Health(); h[1].State != nvm.ReplicaDead {
		t.Fatalf("replica 1 state = %v, want dead (counters: %+v)", h[1].State, ff.TotalCounters())
	}
	// Rewrite and verify every block through the cache and the surviving
	// replica.
	for b := 0; b < nBlocks; b++ {
		tag := byte(100 + b)
		if err := stack.WriteAt(clock, bytes.Repeat([]byte{tag}, block), int64(b)*block); err != nil {
			t.Fatalf("final write block %d: %v", b, err)
		}
	}
	for b := 0; b < nBlocks; b++ {
		if err := stack.ReadAt(clock, buf, int64(b)*block); err != nil {
			t.Fatalf("final read block %d: %v", b, err)
		}
		if want := byte(100 + b); !bytes.Equal(buf, bytes.Repeat([]byte{want}, block)) {
			t.Fatalf("final block %d holds tag %d, want %d", b, buf[0], want)
		}
	}
	if st := mirror.MirrorStats(); st.ScrubbedBlocks == 0 {
		t.Fatal("scrubber never ran")
	}
}

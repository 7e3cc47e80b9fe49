package main

import (
	"runtime"
	"time"

	"semibfs/internal/bitmap"
	"semibfs/internal/csr"
	"semibfs/internal/edgelist"
	"semibfs/internal/enc"
	"semibfs/internal/numa"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// This file holds the host micro-loops behind the *_ns and *_mb_per_s
// per-layer metrics: the harness times a layer's public calls in a tight
// loop over fixed, seeded data. They run only with -trace 1.

// sink defeats dead-code elimination of the loops' results.
var sink uint64

// timeLoop runs fn reps times and returns host ns per rep, taking the best
// of three rounds so a scheduler hiccup does not land in a layer metric.
func timeLoop(reps int, fn func()) float64 {
	best := 0.0
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(reps)
		if round == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// bitmapLoops times the two bitmap idioms the kernels lean on: scanning a
// sparse frontier bitmap for set bits, and the MS-BFS lane-word claim
// (frontier AND NOT visited, OR into next).
func bitmapLoops(out map[string]float64) {
	const bits = 1 << 20
	r := newRNG(1, 0x6269746d6170)
	bm := bitmap.New(bits)
	for i := 0; i < bits/16; i++ {
		bm.Set(int(r.intn(bits)))
	}
	words := float64(len(bm.Words()))
	out["bitmap.scan_ns_per_word"] = timeLoop(20, func() {
		bm.ForEachSet(0, bits, func(i int) { sink += uint64(i) })
	}) / words

	const n = 1 << 16
	frontier, visited, next := bitmap.NewLanes(n), bitmap.NewLanes(n), bitmap.NewLanes(n)
	for v := 0; v < n; v++ {
		frontier.SetWord(v, r.next()&r.next())
		visited.SetWord(v, r.next())
	}
	out["bitmap.lanes_claim_ns_per_word"] = timeLoop(50, func() {
		for v := 0; v < n; v++ {
			if claim := frontier.AndNot(v, visited.Word(v)); claim != 0 {
				sink += next.Or(v, claim)
			}
		}
	}) / n
}

// memstoreLoop times the media's sequential append, the write pattern of
// every offload (4 KiB chunks into a growing in-memory store).
func memstoreLoop(out map[string]float64) {
	const total = 1 << 20
	chunk := make([]byte, nvm.DefaultChunkSize)
	ns := timeLoop(1, func() {
		st := nvm.NewNamedMemStore("bench-append", nil, 0)
		for off := int64(0); off < total; off += int64(len(chunk)) {
			if err := st.WriteAt(nil, chunk, off); err != nil {
				panic(err) // an in-memory append cannot fail
			}
		}
	})
	out["nvm.memstore.write_mb_per_s"] = ratio(total/1e6, ns/1e9)
}

// stackLoops times the storage stack and its clients on td-ssd-stack's own
// configuration: 4 KiB reads through a BuildStack-built full stack (hit and
// miss), warm ForwardReader.Neighbors on the offloaded graph, and the
// adjacency codec on the graph's real neighbor lists.
func stackLoops(ctx *runCtx, out map[string]float64) error {
	spec := tdSSDSpec.sized(ctx.small)
	sc := spec.scenario

	// The stack, as semiext assembles it for a forward value store.
	devs := newDevices(sc)
	const blocks = 1024
	cache := nvm.NewPageCache(64*nvm.DefaultChunkSize, nvm.DefaultChunkSize, numa.CostModel{})
	st, err := nvm.BuildStack(nvm.StackSpec{
		Name: "bench-stack", Base: nvm.BaseFactory(mediaFactory(nil, devs)),
		Checksum: sc.Checksums, Replicas: sc.Replicas, Cache: cache,
		QueueDepth: sc.QueueDepth, BaseChunk: semiext.AggregatedChunk,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	clock := vtime.NewClock(0)
	buf := make([]byte, nvm.DefaultChunkSize)
	for b := int64(0); b < blocks; b++ {
		if err := st.WriteAt(clock, buf, b*int64(len(buf))); err != nil {
			return err
		}
	}
	var rerr error
	read := func(block int64) {
		if err := st.ReadAt(clock, buf, block*int64(len(buf))); err != nil {
			rerr = err
		}
	}
	out["nvm.stack.read_hit_ns"] = timeLoop(20000, func() { read(7) })
	// A stride coprime to the block count revisits a block only after all
	// others: with 64 cached pages of 1024, every read misses.
	next := int64(0)
	miss := func() { next = (next + 389) % blocks; read(next) }
	out["nvm.stack.read_miss_ns"] = timeLoop(20000, miss)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 2000; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	out["nvm.stack.read_allocs"] = float64(m1.Mallocs-m0.Mallocs) / 2000
	if rerr != nil {
		return rerr
	}

	// Warm Neighbors on the workload's own offloaded graph.
	sys, _, err := diagSystem(ctx, spec, diagRoots)
	if err != nil {
		return err
	}
	defer sys.close()
	r := newRNG(ctx.seed, 0x6e6268)
	type key struct {
		k int
		v int64
	}
	keys := make([]key, 2048)
	for i := range keys {
		keys[i] = key{int(r.intn(int64(topology.Nodes))), r.intn(int64(len(sys.deg)))}
	}
	reader := semiext.NewForwardReader(sys.sf, vtime.NewClock(0))
	out["semiext.neighbors_ns"] = timeLoop(4, func() {
		for _, k := range keys {
			nbs, err := reader.Neighbors(k.k, k.v)
			if err != nil {
				rerr = err
			}
			sink += uint64(len(nbs))
		}
	}) / float64(len(keys))
	if rerr != nil {
		return rerr
	}
	return codecLoops(sys.src, sys.part, out)
}

// codecLoops times enc on the graph's real forward adjacency (node 0's
// lists, as OffloadForward encodes them), in raw adjacency megabytes
// (8 bytes per neighbor ID) per host second.
func codecLoops(src edgelist.Source, part *numa.Partition, out map[string]float64) error {
	fg, err := csr.BuildForward(src, part)
	if err != nil {
		return err
	}
	g := fg.PerNode[0]
	var ids int64
	var encoded []byte
	encNs := timeLoop(2, func() {
		encoded, ids = encoded[:0], 0
		for v := int64(0); v < g.NumVertices; v++ {
			nbs := g.Neighbors(v)
			encoded = enc.AppendList(encoded, v, nbs)
			ids += int64(len(nbs))
		}
	})
	rawMB := float64(ids) * 8 / 1e6
	out["enc.encode_mb_per_s"] = ratio(rawMB, encNs/1e9)
	var scratch []int64
	var derr error
	decNs := timeLoop(2, func() {
		data := encoded
		for v := int64(0); v < g.NumVertices; v++ {
			nbs, n, err := enc.DecodeList(data, v, scratch[:0])
			if err != nil {
				derr = err
				return
			}
			scratch, data = nbs, data[n:]
			sink += uint64(len(nbs))
		}
	})
	out["enc.decode_mb_per_s"] = ratio(rawMB, decNs/1e9)
	return derr
}

package nvm

import "fmt"

// BaseFactory creates one base (media-level) store. BuildStack calls it
// once per replica, with names suffixed "-r<i>" when mirroring so the
// factory can route each replica onto its own simulated device (see
// ReplicaIndex). Implementations typically return a MemStore or
// FileStore, optionally wrapped in a fault injector.
type BaseFactory func(name string, chunk int) (Storage, error)

// StackSpec declares a storage stack: which concerns to enable and how.
// BuildStack assembles the layers in the one fixed, correct order —
//
//	metrics → retry → async → cache → mirror → checksum (per replica) → base
//
// so callers state *what* they want, never how to wire it. Ordering
// rationale: metrics observes logical traffic; retry must sit above the
// mirror so a retry re-drives replica selection, and above the cache so
// failed fills are re-read from media; the async pipeline sits below
// retry (a retried read re-enters the queue) and above the cache (its
// coalesced fills land in, and dedup against, the cache's page table);
// the cache must sit above the mirror so hits skip replica selection
// entirely; checksums verify each replica's own media, so the scrubber
// can tell which copy is bad.
type StackSpec struct {
	// Name is the logical store name, carried into errors and replica
	// names.
	Name string
	// Chunk is the request-size cap and block granularity of every layer
	// (<= 0 selects DefaultChunkSize).
	Chunk int
	// Base creates the media stores.
	Base BaseFactory
	// Checksum enables per-replica CRC32-C verification.
	Checksum bool
	// Replicas > 1 mirrors the store across that many base stores, with
	// Mirror parameterizing failover and scrubbing.
	Replicas int
	Mirror   MirrorConfig
	// Cache, when non-nil, routes reads through the shared page cache.
	Cache *PageCache
	// QueueDepth > 0 places an AsyncStore (bounded coalescing I/O
	// pipeline) between retry and cache. It needs the cache to hold the
	// coalesced fills, so it is ignored when Cache is nil.
	QueueDepth int
	// BaseChunk, when > 0, raises the *media* request-size cap above
	// Chunk so a coalesced multi-block fill reaches the device as one
	// large request. Logical layers (checksum blocks, cache pages) keep
	// Chunk granularity. Only meaningful with QueueDepth > 0; zero keeps
	// the base at Chunk, the synchronous baseline's behavior.
	BaseChunk int
	// Retry is the retry/backoff policy; the zero value selects
	// DefaultRetryPolicy. A policy with MaxAttempts 1 disables retries.
	Retry RetryPolicy
}

func (s StackSpec) chunk() int {
	if s.Chunk <= 0 {
		return DefaultChunkSize
	}
	return s.Chunk
}

func (s StackSpec) retry() RetryPolicy {
	if s.Retry == (RetryPolicy{}) {
		return DefaultRetryPolicy
	}
	return s.Retry
}

// BuildStack assembles the declared stack and returns its outermost
// layer. Closing the returned Storage closes every layer exactly once
// (each layer propagates Close to what it wraps). If construction fails
// mid-stack, every store already created is closed before returning.
func BuildStack(spec StackSpec) (Storage, error) {
	if spec.Base == nil {
		return nil, fmt.Errorf("nvm: stack %s: no base factory", spec.Name)
	}
	chunk := spec.chunk()
	// The media request cap: the async pipeline coalesces adjacent cache
	// blocks into large fills, which only pays off if the base store does
	// not immediately split them back into Chunk-sized device requests.
	baseChunk := chunk
	if spec.QueueDepth > 0 && spec.Cache != nil && spec.BaseChunk > chunk {
		baseChunk = spec.BaseChunk
	}

	// One leaf = base media, optionally checksum-verified. On checksum
	// wrap failure the base is closed here, so callers above only ever
	// see whole leaves.
	mkLeaf := func(name string, chunk int) (Storage, error) {
		base, err := spec.Base(name, baseChunk)
		if err != nil {
			return nil, err
		}
		if !spec.Checksum {
			return base, nil
		}
		cs, err := WrapChecksumNamed(base, name, chunk)
		if err != nil {
			base.Close()
			return nil, err
		}
		return cs, nil
	}

	var st Storage
	if spec.Replicas > 1 {
		// NewArrayStore closes already-created replicas on factory error.
		arr, err := NewArrayStore(spec.Name, spec.Replicas, chunk, mkLeaf, spec.Mirror)
		if err != nil {
			return nil, err
		}
		st = arr
	} else {
		leaf, err := mkLeaf(spec.Name, chunk)
		if err != nil {
			return nil, err
		}
		st = leaf
	}

	if spec.Cache != nil {
		st = spec.Cache.Wrap(st)
		if spec.QueueDepth > 0 {
			st = WrapAsync(st, spec.Name, spec.QueueDepth)
		}
	}
	st = WrapRetry(st, spec.Name, chunk, spec.retry())
	return WrapMetrics(st, spec.Name), nil
}

// Package bfs implements the NUMA-optimized hybrid (direction-optimizing)
// breadth-first search of the paper: NETAL's top-down and bottom-up
// kernels, the alpha/beta direction-switching rule of Section III-C, and
// the virtual-time cost accounting that emulates the 48-core testbed.
//
// The kernels are agnostic to where the graphs live: they traverse through
// the ForwardAccess/BackwardAccess interfaces, whose DRAM implementations
// wrap the csr package and whose NVM implementations wrap the semiext
// package. Device time for NVM requests is charged to each simulated
// worker's clock inside the access layer; DRAM costs are charged by the
// kernels from the numa.CostModel.
package bfs

import (
	"semibfs/internal/csr"
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
	"semibfs/internal/vtime"
)

// ForwardCursor is a per-worker view of the forward graph. Neighbors
// returns the adjacency of v restricted to NUMA node k's replica and
// reports whether the bytes came from NVM (in which case device time has
// already been charged to the worker's clock).
type ForwardCursor interface {
	Neighbors(k int, v int64) (nbs []int64, fromNVM bool, err error)
}

// FrontierPrefetcher is optionally implemented by forward cursors that can
// translate an upcoming frontier chunk into asynchronous storage readahead.
// The engine announces worker w's next chunk before scanning its current
// one; the cursor issues the I/O (coalesced through the async pipeline
// when one is configured) and returns without blocking, so device time
// overlaps the current chunk's expansion.
type FrontierPrefetcher interface {
	PrefetchFrontier(k int, vs []int64)
}

// ForwardAccess hands out per-worker cursors over a forward graph.
type ForwardAccess interface {
	NewCursor(clock *vtime.Clock) ForwardCursor
	// OnNVM reports whether the graph's adjacency lives on NVM.
	OnNVM() bool
}

// BackwardScan is a per-worker view of the backward graph. A bottom-up
// kernel walks each vertex's DRAM prefix itself and hands only what
// follows it to a probe closure:
//
//   - Prefix returns v's DRAM prefix as 32-bit vertex IDs, its first
//     entry (head == nbs[0] whenever nbs is not empty, read from a dense
//     column so a kernel can test it before loading the prefix) and
//     whether anything follows it: a stored tail, or — when v has
//     pending edits, and nbs is nil — the whole merged adjacency. It
//     charges and counts nothing.
//   - Rest streams that remainder to fn a slice at a time (a tail chunk's
//     batch, a run of the merged adjacency) until fn stops. fn returns how
//     many of the slice it examined — all of them, or through the one it
//     stopped at — and must not keep or modify the slice.
//   - CountPrefix adds the prefix entries the caller examined to the
//     scanner's DRAM counter (see ScanCounters); kernels call it once per
//     worker per level.
//   - Idle returns the vertices of bitmap word wi with no neighbors at
//     all, stored or pending: those Prefix would answer with an empty
//     prefix and rest == false. It lets the Runner's kernel charge such a
//     vertex its overhead in place without calling Prefix for it, one call
//     per word instead of one per vertex.
//
// Scan streams v's whole adjacency to fn the same way.
// Rest and Scan return how many neighbors were examined from DRAM and from
// NVM.
type BackwardScan interface {
	Prefix(k int, v int64) (head uint32, nbs []uint32, rest bool)
	Rest(k int, v int64, fn func(nbs []int64) (int, bool)) (dram, nvmEdges int64, err error)
	CountPrefix(dram int64)
	Idle(wi int) uint64
	Scan(k int, v int64, fn func(nbs []int64) (int, bool)) (dram, nvmEdges int64, err error)
}

// BackwardAccess hands out per-worker scanners over a backward graph.
type BackwardAccess interface {
	NewScanner(clock *vtime.Clock) BackwardScan
	// Degree returns the full degree of v (free of device charges; the
	// engine uses it only for level statistics).
	Degree(v int64) int64
}

// ScanCounters is optionally implemented by BackwardScan values that track
// cumulative DRAM/NVM edge examinations (the Figure 14 access-ratio data).
type ScanCounters interface {
	Counters() (dram, nvmEdges int64)
}

// BackwardNVM is optionally implemented by BackwardAccess values to report
// whether any of the backward graph lives on NVM. The engine degrades into
// the bottom-up direction only when this reports false (the graph is fully
// DRAM-resident, per the paper's Section V-C placement); an access that
// does not implement it is conservatively assumed to touch NVM.
type BackwardNVM interface {
	OnNVM() bool
}

// StorageStacks is optionally implemented by ForwardAccess and
// BackwardAccess values whose graphs live on NVM storage stacks. The
// engine plans an nvm.Collector over the returned stacks once, at
// construction, and reads it to report per-run, per-layer counters —
// retry/backoff, cache, mirror, checksum, fault-injection — without knowing
// which layers a scenario enabled. The stacks must stay the same for the
// engine's life (a compaction that installs new stores builds new engines).
type StorageStacks interface {
	Stacks() []nvm.Storage
}

// DRAMForward adapts a DRAM-resident csr.ForwardGraph.
type DRAMForward struct {
	G *csr.ForwardGraph
}

// NewCursor implements ForwardAccess.
func (d DRAMForward) NewCursor(*vtime.Clock) ForwardCursor {
	return &dramForwardCursor{g: d.G}
}

// OnNVM implements ForwardAccess.
func (DRAMForward) OnNVM() bool { return false }

type dramForwardCursor struct {
	g *csr.ForwardGraph
}

func (c *dramForwardCursor) Neighbors(k int, v int64) ([]int64, bool, error) {
	return c.g.PerNode[k].Neighbors(v), false, nil
}

// NVMForward adapts a semi-external semiext.SemiForward.
type NVMForward struct {
	SF *semiext.SemiForward
}

// NewCursor implements ForwardAccess.
func (n NVMForward) NewCursor(clock *vtime.Clock) ForwardCursor {
	return &nvmForwardCursor{r: semiext.NewForwardReader(n.SF, clock)}
}

// OnNVM implements ForwardAccess.
func (NVMForward) OnNVM() bool { return true }

// Stacks implements StorageStacks.
func (n NVMForward) Stacks() []nvm.Storage { return n.SF.Stacks() }

type nvmForwardCursor struct {
	r *semiext.ForwardReader
}

func (c *nvmForwardCursor) Neighbors(k int, v int64) ([]int64, bool, error) {
	nbs, err := c.r.Neighbors(k, v)
	return nbs, true, err
}

// PrefetchFrontier implements FrontierPrefetcher.
func (c *nvmForwardCursor) PrefetchFrontier(k int, vs []int64) {
	c.r.PrefetchFrontier(k, vs)
}

// HybridBackwardAccess adapts a semiext.HybridBackward (DRAM prefix + NVM
// tail).
type HybridBackwardAccess struct {
	HB *semiext.HybridBackward
}

// NewScanner implements BackwardAccess.
func (h HybridBackwardAccess) NewScanner(clock *vtime.Clock) BackwardScan {
	return &hybridBackwardScan{semiext.NewBackwardScanner(h.HB, clock)}
}

// Degree implements BackwardAccess.
func (h HybridBackwardAccess) Degree(v int64) int64 { return h.HB.Degree(v) }

// OnNVM implements BackwardNVM: true when any node offloaded a tail.
func (h HybridBackwardAccess) OnNVM() bool {
	for _, n := range h.HB.PerNode {
		if n.TailStore != nil {
			return true
		}
	}
	return false
}

// Stacks implements StorageStacks.
func (h HybridBackwardAccess) Stacks() []nvm.Storage { return h.HB.Stacks() }

// hybridBackwardScan is a semiext.BackwardScanner with the engine's
// per-tier counts: Prefix is the scanner's own (the embedded pointer makes
// the interface call land on it directly).
type hybridBackwardScan struct {
	*semiext.BackwardScanner
}

// Rest implements BackwardScan.
func (s *hybridBackwardScan) Rest(k int, v int64, fn func(nbs []int64) (int, bool)) (int64, int64, error) {
	dram0, nvm0 := s.DRAMEdgesScanned, s.NVMEdgesScanned
	if _, err := s.BackwardScanner.Rest(k, v, fn); err != nil {
		return 0, 0, err
	}
	return s.DRAMEdgesScanned - dram0, s.NVMEdgesScanned - nvm0, nil
}

// CountPrefix implements BackwardScan.
func (s *hybridBackwardScan) CountPrefix(dram int64) { s.DRAMEdgesScanned += dram }

// Scan implements BackwardScan.
func (s *hybridBackwardScan) Scan(k int, v int64, fn func(nbs []int64) (int, bool)) (int64, int64, error) {
	dram0, nvm0 := s.DRAMEdgesScanned, s.NVMEdgesScanned
	if _, err := s.BackwardScanner.Scan(k, v, fn); err != nil {
		return 0, 0, err
	}
	return s.DRAMEdgesScanned - dram0, s.NVMEdgesScanned - nvm0, nil
}

// Counters implements ScanCounters.
func (s *hybridBackwardScan) Counters() (int64, int64) {
	return s.DRAMEdgesScanned, s.NVMEdgesScanned
}

package core

import (
	"fmt"

	"semibfs/internal/csr"
	"semibfs/internal/nvm"
)

// Plan is a placement decision for one instance under a DRAM budget: what
// goes to NVM and what the expected DRAM footprint is afterwards.
type Plan struct {
	// Budget is the DRAM budget the plan was made for.
	Budget int64
	// ForwardOnNVM reports whether the forward graph must be offloaded.
	ForwardOnNVM bool
	// BackwardDRAMEdgeLimit is the per-vertex DRAM edge cap for the
	// backward graph (0 = whole graph in DRAM).
	BackwardDRAMEdgeLimit int
	// DRAMBytes / NVMBytes are the planned footprints (status data and
	// the backward index arrays always count as DRAM).
	DRAMBytes int64
	NVMBytes  int64
	// Fits reports whether the planned DRAM footprint is within budget;
	// when even the most aggressive offload does not fit, Fits is false
	// and the plan is the most aggressive one.
	Fits bool
}

// String renders a one-line description of the plan.
func (p Plan) String() string {
	fwd := "DRAM"
	if p.ForwardOnNVM {
		fwd = "NVM"
	}
	bwd := "all in DRAM"
	if p.BackwardDRAMEdgeLimit > 0 {
		bwd = fmt.Sprintf("first %d edges/vertex in DRAM", p.BackwardDRAMEdgeLimit)
	}
	return fmt.Sprintf("forward: %s, backward: %s (DRAM %d B, NVM %d B, fits=%v)",
		fwd, bwd, p.DRAMBytes, p.NVMBytes, p.Fits)
}

// backwardEdgeLimits are the per-vertex caps Figure 14 evaluates, from the
// least to the most aggressive offload.
var backwardEdgeLimits = []int{32, 16, 8, 4, 2}

// PlanPlacement chooses the least aggressive placement of an instance
// described by sizes that fits within budget bytes of DRAM, following the
// paper's offloading order: first the forward graph moves to NVM
// (Section V), then the backward graph's per-vertex tails (Section VI-E).
//
// The backward-graph estimate assumes the Kronecker degree profile cannot
// be known analytically, so it uses the conservative bound of keeping
// limit*N edge slots plus the index arrays in DRAM. There is no planner for
// a *built* instance; a System reports its measured placement in
// DRAMBytes and NVMBytes.
func PlanPlacement(sizes csr.SizeBreakdown, budget int64) Plan {
	n := int64(1) << uint(sizes.Scale)
	always := sizes.Status // BFS status data never offloads
	p := Plan{Budget: budget}

	// Option 0: everything in DRAM.
	p.DRAMBytes = always + sizes.Forward + sizes.Backward
	if p.DRAMBytes <= budget {
		p.Fits = true
		return p
	}
	// Option 1: forward graph to NVM.
	p.ForwardOnNVM = true
	p.DRAMBytes = always + sizes.Backward
	p.NVMBytes = sizes.Forward
	if p.DRAMBytes <= budget {
		p.Fits = true
		return p
	}
	// Option 2: cap the DRAM-resident backward edges per vertex.
	// Backward DRAM under limit k: index arrays (~2*(N+1)*8 for DRAM
	// and tail indices) + at most k*N value entries.
	for _, k := range backwardEdgeLimits {
		dramBwd := 2*(n+1)*8 + int64(k)*n*8
		if dramBwd > sizes.Backward {
			dramBwd = sizes.Backward
		}
		p.BackwardDRAMEdgeLimit = k
		p.DRAMBytes = always + dramBwd
		p.NVMBytes = sizes.Forward + (sizes.Backward - dramBwd)
		if p.DRAMBytes <= budget {
			p.Fits = true
			return p
		}
	}
	p.Fits = false
	return p
}

// Apply returns a Scenario implementing the plan on the given device
// profile.
func (p Plan) Apply(name string, dev nvm.Profile) Scenario {
	sc := Scenario{
		Name:                  name,
		DRAMCapacity:          p.Budget,
		BackwardDRAMEdgeLimit: p.BackwardDRAMEdgeLimit,
		ForwardOnNVM:          p.ForwardOnNVM,
	}
	if p.ForwardOnNVM || p.BackwardDRAMEdgeLimit > 0 {
		sc.Device = dev
	}
	return sc
}

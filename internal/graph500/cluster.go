package graph500

import (
	"fmt"

	"semibfs/internal/cluster"
	"semibfs/internal/validate"
)

// ClusterTotals is the per-root protocol's outcome over a simulated cluster.
type ClusterTotals struct {
	// TEPS holds one rate per root that took virtual time.
	TEPS []float64
	// Comm sums the interconnect traffic over all roots, per phase
	// (Comm.Total() is the total).
	Comm cluster.CommStats
	// Validated counts the roots check vetted; Degraded the runs a dead
	// machine pinned to its DRAM-resident direction.
	Validated, Degraded int
}

// RunCluster runs Steps 3-4 on a simulated cluster: every root goes through
// run (a 1D cluster's or a grid's Run), its tree is priced off the degree
// table, and the first validateRoots roots (0 = all) are vetted by check
// (nil = none).
func RunCluster(run func(root int64) (*cluster.Result, error), roots []int64, degrees []int64,
	validateRoots int, check func(root int64, res *cluster.Result) error) (*ClusterTotals, error) {
	t := &ClusterTotals{}
	for i, root := range roots {
		res, err := run(root)
		if err == nil && check != nil && (validateRoots == 0 || i < validateRoots) {
			err = check(root, res)
			t.Validated++
		}
		if err != nil {
			return nil, fmt.Errorf("root %d: %w", root, err)
		}
		if res.Time > 0 {
			t.TEPS = append(t.TEPS, float64(validate.TraversedEdges(res.Tree, degrees))/res.Time.Seconds())
		}
		t.Comm = t.Comm.Add(res.Comm)
		if res.Degraded {
			t.Degraded++
		}
	}
	return t, nil
}

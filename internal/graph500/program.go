package graph500

import (
	"fmt"

	"semibfs/internal/core"
	"semibfs/internal/vp"
)

// RunProgram runs the vertex program algo over sys once from each start, in
// order, and hands every run to each before the next start overwrites the
// program's per-vertex output. The runs share one new engine, which opens
// the device epochs where a run begins (bfs.Team's begin), and a page cache
// that starts cold and warms across them — so any number of programs can
// take turns on one system. PageRank's degree array comes from sys's
// backward access, so it matches what the engine's scans stream.
func RunProgram(sys *core.System, algo vp.Algorithm, cfg vp.Config, pr vp.PageRankOptions,
	starts []int64, each func(start int64, prog vp.Program, res *vp.Result) error) error {
	coldCache(sys)
	deg := make([]int64, sys.Part.N)
	for v := range deg {
		deg[v] = sys.Backward.Degree(int64(v))
	}
	prog, err := vp.NewProgram(algo, deg, pr)
	if err != nil {
		return err
	}
	eng, err := vp.NewEngine(sys.Forward, sys.Backward, sys.Part, prog, cfg)
	if err != nil {
		return err
	}
	for _, start := range starts {
		res, err := eng.Run(start)
		if err != nil {
			return fmt.Errorf("graph500: %s from %d: %w", algo, start, err)
		}
		if err := each(start, prog, res); err != nil {
			return err
		}
	}
	return nil
}

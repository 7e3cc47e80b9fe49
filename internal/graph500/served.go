package graph500

import (
	"semibfs/internal/bfs"
	"semibfs/internal/core"
	"semibfs/internal/nvm"
	"semibfs/internal/serve"
)

// ServedResult is one arrival trace played through the always-on server.
type ServedResult struct {
	// Outcomes accounts every query of the trace, in resolution order.
	Outcomes []serve.ServedQuery
	Stats    serve.ServerStats
	// Layers holds the storage-stack counters of the whole trace.
	Layers      nvm.StackStats
	StatusBytes int64
}

// RunServed plays trace as an open-loop arrival process through a fresh
// continuous-batching server of scfg.Lanes lanes over sys, from a cold page
// cache: arrivals join the next sweep's free lanes while earlier queries are
// still in flight, and scfg's queue bound, shedding policy and deadline
// decide what is not served.
func RunServed(sys *core.System, cfg bfs.Config, scfg serve.ServerConfig, trace []serve.Arrival) (*ServedResult, error) {
	coldCache(sys)
	br, err := sys.NewBatchRunner(scfg.Lanes, cfg)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(br, sys.Backward.Degree, int64(sys.Part.N), scfg)
	defer srv.Close()
	outs, err := srv.ServeTrace(trace)
	if err != nil {
		return nil, err
	}
	return &ServedResult{Outcomes: outs, Stats: srv.Stats(), Layers: srv.Layers(), StatusBytes: br.StatusBytes()}, nil
}

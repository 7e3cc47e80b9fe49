package semibfs

import "semibfs/internal/serve"

// Server is the always-on continuous-batching serving loop; see the serve
// package for the engine. New queries join the next sweep's free lanes
// while earlier queries are still in flight; a bounded submission queue
// with explicit shedding policies provides backpressure; per-query
// virtual-time deadlines expire unserved work between sweeps; and every
// submission is accounted to exactly one Outcome.
type Server = serve.Server

// ServerConfig configures a serving loop; see serve.ServerConfig.
type ServerConfig = serve.ServerConfig

// SubmitOptions carry a query's deadline and priority.
type SubmitOptions = serve.SubmitOptions

// Outcome is a query's final disposition.
type Outcome = serve.Outcome

// ServedQuery is one query's accounted outcome.
type ServedQuery = serve.ServedQuery

// ServerStats aggregates the serving loop's accounting.
type ServerStats = serve.ServerStats

// Arrival is one open-loop trace entry for Server.ServeTrace.
type Arrival = serve.Arrival

// ShedPolicy selects which query is rejected when the submission queue is
// full.
type ShedPolicy = serve.Policy

const (
	// OutcomeServed: the search ran to completion.
	OutcomeServed = serve.OutcomeServed
	// OutcomeShed: rejected by the bounded queue's shedding policy.
	OutcomeShed = serve.OutcomeShed
	// OutcomeExpired: the deadline passed before completion.
	OutcomeExpired = serve.OutcomeExpired
	// OutcomeCancelled: removed by Cancel or a server Close.
	OutcomeCancelled = serve.OutcomeCancelled
	// OutcomeFailed: lost to an unrescuable device failure mid-sweep.
	OutcomeFailed = serve.OutcomeFailed

	// ShedRejectNewest tail-drops the arriving query (the default).
	ShedRejectNewest = serve.RejectNewest
	// ShedRejectOldest sheds the longest-queued query instead.
	ShedRejectOldest = serve.RejectOldest
	// ShedRejectLowestPriority sheds the lowest-priority query, newest
	// among equals.
	ShedRejectLowestPriority = serve.RejectLowestPriority
)

// ErrServerClosed is returned by Submit once the server has been closed.
var ErrServerClosed = serve.ErrServerClosed

// ParseShedPolicy parses the -shed-policy CLI spellings: reject-newest,
// reject-oldest, reject-lowest-priority (or newest/oldest/priority).
func ParseShedPolicy(s string) (ShedPolicy, error) { return serve.ParsePolicy(s) }

// NewServer returns a serving loop of cfg.Lanes lanes over this System's
// stores and page cache. The server shares the stores (its Close stops the
// loop but closes nothing); the System must outlive it.
func (s *System) NewServer(cfg ServerConfig) (*Server, error) {
	br, err := s.sys.NewBatchRunner(cfg.Lanes, s.runner.Config())
	if err != nil {
		return nil, err
	}
	return serve.NewServer(br, s.Degree, s.src.NumVertices(), cfg), nil
}

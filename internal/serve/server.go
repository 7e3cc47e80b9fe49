package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"semibfs/internal/bfs"
	"semibfs/internal/bitmap"
	"semibfs/internal/nvm"
	"semibfs/internal/stats"
	"semibfs/internal/vtime"
)

// ErrServerClosed is returned by Submit once the server has been closed.
var ErrServerClosed = errors.New("semibfs: server closed")

// ServerConfig configures an online serving loop.
type ServerConfig struct {
	// Lanes is the batch width B: the number of concurrent searches.
	Lanes int
	// QueueCap bounds the submission queue; once full, Policy decides what
	// is shed. <= 0 means unbounded (no backpressure, no shedding) — the
	// LoadSweep baseline whose tail latency grows without bound.
	QueueCap int
	// Policy is the shedding policy applied at QueueCap.
	Policy Policy
	// DefaultDeadline is the per-query deadline in virtual seconds,
	// relative to arrival, applied when a submission carries none; 0 means
	// no deadline. An unserved query past its deadline is expired between
	// sweeps: dequeued, or cancelled mid-flight with its lane reclaimed.
	DefaultDeadline float64
	// KeepTrees retains each served query's parent array in its
	// ServedQuery (one int64 per vertex per query — expensive; off for
	// load experiments). Without it the sweeps write no parent arrays at
	// all; virtual time is the same either way.
	KeepTrees bool
	// BetweenSweeps, when set, runs at every sweep boundary with the
	// current virtual time (seconds). No search is mid-sweep at that
	// point, so it is the server's safe point for applying dynamic-graph
	// updates: a mutation it makes is seen atomically by every later
	// sweep, and admitted queries keep their lanes and run to completion
	// over the evolving graph. An error aborts the step and surfaces to
	// the driver.
	BetweenSweeps func(now float64) error
}

// Outcome is a query's final disposition. Every accepted submission ends
// in exactly one outcome.
type Outcome int

const (
	// OutcomeServed: the search ran to completion (possibly past its
	// deadline — lateness is visible in Latency).
	OutcomeServed Outcome = iota
	// OutcomeShed: rejected by the bounded queue's shedding policy.
	OutcomeShed
	// OutcomeExpired: the deadline passed before completion — in the
	// queue, or mid-flight (the lane was reclaimed and scrubbed).
	OutcomeExpired
	// OutcomeCancelled: removed by Cancel or a server Close.
	OutcomeCancelled
	// OutcomeFailed: lost to an unrescuable device failure mid-sweep.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeShed:
		return "shed"
	case OutcomeExpired:
		return "expired"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeFailed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ServedQuery is one query's accounted outcome. Times are virtual seconds
// on the simulated machine's clock.
type ServedQuery struct {
	ID       int
	Root     int64
	Outcome  Outcome
	Priority int
	// Arrival is when the query entered the system; Admitted when it got
	// a lane (0 if it never did); Finished when its outcome was decided.
	Arrival, Admitted, Finished float64
	// Latency is Finished - Arrival: completion latency for served
	// queries, time-to-rejection for the rest.
	Latency float64
	// Levels counts the sweeps the query rode; Lane is its bit lane.
	Levels int
	Lane   int
	// Degraded reports the query lived through a device-death rescue.
	Degraded bool
	// Visited / TraversedEdges describe the finished search (served only).
	Visited        int64
	TraversedEdges int64
	// Parents is the BFS tree, retained only when ServerConfig.KeepTrees.
	Parents []int64
}

// TEPS returns the served query's traversed edges per second of latency.
func (s *ServedQuery) TEPS() float64 {
	if s.Latency <= 0 {
		return 0
	}
	return float64(s.TraversedEdges) / s.Latency
}

// ServerStats aggregates the serving loop's accounting.
type ServerStats struct {
	// Submitted counts accepted submissions; the next five partition them
	// (plus any still queued or in flight) by outcome.
	Submitted, Served, Shed, Expired, Cancelled, Failed int64
	// Steps counts executed sweeps (joint BFS levels); LaneLevels the
	// occupied lane-sweeps, so LaneLevels/(Steps*Lanes) is occupancy.
	Steps, LaneLevels int64
	// DegradedEvents counts device-death rescues absorbed mid-sweep.
	DegradedEvents int64
	// MaxQueueDepth / QueueDepthSum describe the submission queue depth
	// (sampled once per sweep).
	MaxQueueDepth int
	QueueDepthSum int64
	// Latency is the served queries' completion-latency distribution in
	// virtual nanoseconds; Wait the queue-wait (admission - arrival) of
	// every admitted query.
	Latency stats.Histogram
	Wait    stats.Histogram
}

// Occupancy returns the mean fraction of lanes doing useful work per sweep.
func (s *ServerStats) Occupancy(lanes int) float64 {
	if s.Steps == 0 || lanes == 0 {
		return 0
	}
	return float64(s.LaneLevels) / float64(s.Steps*int64(lanes))
}

// MeanQueueDepth returns the mean sampled submission-queue depth.
func (s *ServerStats) MeanQueueDepth() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.QueueDepthSum) / float64(s.Steps)
}

// Arrival is one query as Submit takes it, and one entry of a
// ServeTrace trace.
type Arrival struct {
	Root int64
	// At is the absolute virtual arrival time in seconds.
	At float64
	// Deadline in virtual seconds relative to At; 0 uses the server
	// default.
	Deadline float64
	// Priority orders admission and priority-aware shedding: higher wins.
	Priority int
}

// laneTrack is one in-flight query.
type laneTrack struct {
	active   bool
	req      Request
	admitted vtime.Duration
	levels   int
	degraded bool
	cancel   bool
}

// Server is the always-on serving loop over a shared batched BFS runner:
// a bounded admission queue in front of a live lane scheduler. Newly
// admitted queries join the next sweep's free lanes while earlier queries
// are still in flight (continuous batching); expired or cancelled queries
// are cut loose between sweeps, their lanes scrubbed and reused; a device
// death mid-sweep degrades the whole in-flight cohort onto the surviving
// direction without dropping admitted work. Every submission is accounted
// to exactly one Outcome.
//
// The caller drives the server: Submit stamps a query with its own arrival
// time, RunUntil sweeps the virtual clock forward to a point, Drain and
// Close run it dry. ServeTrace is that loop over a whole trace. Virtual
// time and every outcome are a pure function of the calls made. A server,
// like the storage stacks under its runner, belongs to one goroutine at a
// time: a caller that shares one wraps it in its own mutex.
type Server struct {
	sess *bfs.BatchSession
	deg  func(int64) int64
	n    int64
	cfg  ServerConfig
	// degrees is deg tabulated for the per-sweep traversed-edge count;
	// a BetweenSweeps hook may change the graph, so after one has run
	// (stale) the table is filled again before the next count reads it
	degrees []int64
	stale   bool

	queue    *Queue
	lanes    []laneTrack
	nextID   int
	stats    ServerStats
	outcomes []ServedQuery
	closed   bool
	// traversed holds the finished lanes' traversed edges, counted in one
	// pass per sweep before their outcomes are resolved
	traversed [bitmap.MaxLanes]int64
}

// NewServer wires a server over an existing batch runner; deg is the
// degree oracle for traversed-edge accounting, tabulated here once, and n
// the vertex-universe size. The server shares the runner's stores; it
// closes none of them.
func NewServer(br *bfs.BatchRunner, deg func(int64) int64, n int64, cfg ServerConfig) *Server {
	return &Server{
		sess:    br.OpenSession(cfg.KeepTrees),
		deg:     deg,
		n:       n,
		cfg:     cfg,
		degrees: bfs.DegreeTable(n, deg),
		queue:   NewQueue(cfg.QueueCap, cfg.Policy),
		lanes:   make([]laneTrack, br.Lanes()),
	}
}

// Lanes returns the server's batch width B.
func (sv *Server) Lanes() int { return len(sv.lanes) }

// Now returns the server's virtual time in seconds.
func (sv *Server) Now() float64 { return sv.sess.Now().Seconds() }

// Stats snapshots the serving statistics.
func (sv *Server) Stats() ServerStats { return sv.stats }

// Layers snapshots the cumulative per-layer storage-stack counters under
// the server's session (empty when the graphs are DRAM-resident).
func (sv *Server) Layers() nvm.StackStats { return sv.sess.LayerTotals() }

// QueueDepth returns the current submission-queue length.
func (sv *Server) QueueDepth() int { return sv.queue.Len() }

// Submit enqueues a query that arrived at a.At and returns its ID. An
// arrival later than Now is an error (RunUntil it first); an earlier one
// is stamped as given, so its latency counts from a.At. The queue may shed
// it (or another query) immediately per the policy; shedding is visible in
// the outcomes, not in Submit's return. Submit never blocks on a full
// queue — backpressure is explicit.
func (sv *Server) Submit(a Arrival) (int, error) {
	if sv.closed {
		return 0, ErrServerClosed
	}
	if a.Root < 0 || a.Root >= sv.n {
		return 0, fmt.Errorf("semibfs: root %d outside [0,%d)", a.Root, sv.n)
	}
	at := secondsToVtime(a.At)
	if now := sv.sess.Now(); at > now {
		return 0, fmt.Errorf("semibfs: arrival at %v s is after the server's clock, %v s", a.At, now.Seconds())
	}
	rel := a.Deadline
	if rel == 0 {
		rel = sv.cfg.DefaultDeadline
	}
	var dl vtime.Duration
	if rel > 0 {
		dl = at + secondsToVtime(rel)
	}
	id := sv.nextID
	sv.nextID++
	sv.stats.Submitted++
	req := Request{
		ID: id, Root: a.Root,
		Arrival:  at,
		Deadline: dl,
		Priority: a.Priority,
	}
	for _, shed := range sv.queue.Offer(req) {
		sv.resolveQueued(shed, OutcomeShed, sv.sess.Now())
	}
	if d := sv.queue.Len(); d > sv.stats.MaxQueueDepth {
		sv.stats.MaxQueueDepth = d
	}
	return id, nil
}

func secondsToVtime(s float64) vtime.Duration {
	return vtime.Duration(s * float64(vtime.Second))
}

// resolveQueued accounts a final outcome for a request that never got a
// lane.
func (sv *Server) resolveQueued(req Request, o Outcome, now vtime.Duration) {
	sq := ServedQuery{
		ID: req.ID, Root: req.Root, Outcome: o, Priority: req.Priority,
		Arrival:  req.Arrival.Seconds(),
		Finished: now.Seconds(),
		Latency:  (now - req.Arrival).Seconds(),
		Lane:     -1,
	}
	sv.countOutcome(o)
	sv.outcomes = append(sv.outcomes, sq)
}

// resolveLane accounts a final outcome for an in-flight lane and frees its
// track (the session lane itself is released by the caller).
func (sv *Server) resolveLane(l int, o Outcome, now vtime.Duration) {
	tr := &sv.lanes[l]
	sq := ServedQuery{
		ID: tr.req.ID, Root: tr.req.Root, Outcome: o, Priority: tr.req.Priority,
		Arrival:  tr.req.Arrival.Seconds(),
		Admitted: tr.admitted.Seconds(),
		Finished: now.Seconds(),
		Latency:  (now - tr.req.Arrival).Seconds(),
		Levels:   tr.levels,
		Lane:     l,
		Degraded: tr.degraded,
	}
	if o == OutcomeServed {
		sq.Visited = sv.sess.VisitedCount(l)
		sq.TraversedEdges = sv.traversed[l]
		if sv.cfg.KeepTrees {
			sq.Parents = append([]int64(nil), sv.sess.Tree(l)...)
		}
		sv.stats.Latency.Observe(int64(now - tr.req.Arrival))
	}
	sv.countOutcome(o)
	sv.outcomes = append(sv.outcomes, sq)
	tr.active = false
}

func (sv *Server) countOutcome(o Outcome) {
	switch o {
	case OutcomeServed:
		sv.stats.Served++
	case OutcomeShed:
		sv.stats.Shed++
	case OutcomeExpired:
		sv.stats.Expired++
	case OutcomeCancelled:
		sv.stats.Cancelled++
	case OutcomeFailed:
		sv.stats.Failed++
	}
}

// admit moves queued requests into free lanes, at every sweep boundary.
func (sv *Server) admit(now vtime.Duration) error {
	for free := sv.sess.FreeLanes(); free != 0; free &= free - 1 {
		req, ok := sv.queue.Take()
		if !ok {
			break
		}
		l := bits.TrailingZeros64(free)
		if err := sv.sess.Admit(l, req.Root); err != nil {
			return err
		}
		sv.lanes[l] = laneTrack{active: true, req: req, admitted: now}
		sv.stats.Wait.Observe(int64(now - req.Arrival))
	}
	return nil
}

// step runs one sweep and resolves its consequences. It returns false
// when there was nothing to do (no live lanes).
func (sv *Server) step() (bool, error) {
	sess := sv.sess
	now := sess.Now()

	if sv.cfg.BetweenSweeps != nil && !sv.closed {
		sv.stale = true
		if err := sv.cfg.BetweenSweeps(now.Seconds()); err != nil {
			return false, err
		}
	}
	// Between-sweep reclamation: cancelled and expired in-flight queries
	// give their lanes back before the next sweep.
	var reclaim uint64
	for l := range sv.lanes {
		tr := &sv.lanes[l]
		if !tr.active {
			continue
		}
		bit := uint64(1) << uint(l)
		switch {
		case tr.cancel:
			sv.resolveLane(l, OutcomeCancelled, now)
			reclaim |= bit
		case tr.req.Expired(now):
			sv.resolveLane(l, OutcomeExpired, now)
			reclaim |= bit
		}
	}
	if reclaim != 0 {
		if err := sess.Release(reclaim); err != nil {
			return false, err
		}
	}
	// Queue-side expiry, then admission into whatever is now free. A
	// closing server admits nothing more: in-flight work finishes, the
	// queue is cancelled by Close.
	for _, req := range sv.queue.Expire(now) {
		sv.resolveQueued(req, OutcomeExpired, now)
	}
	if !sv.closed {
		if err := sv.admit(now); err != nil {
			return false, err
		}
	}
	if sess.InUse() == 0 {
		return false, nil
	}

	live := bits.OnesCount64(sess.InUse())
	lv, err := sess.Step()
	if err != nil {
		// Unrescuable: the in-flight cohort is lost. Account every lane,
		// scrub everything, and surface the error.
		end := sess.Now()
		for l := range sv.lanes {
			if sv.lanes[l].active {
				sv.resolveLane(l, OutcomeFailed, end)
			}
		}
		if rerr := sess.Release(sess.InUse()); rerr != nil {
			return false, rerr
		}
		return false, err
	}
	sv.stats.Steps++
	sv.stats.LaneLevels += int64(live)
	sv.stats.QueueDepthSum += int64(sv.queue.Len())
	if d := sv.queue.Len(); d > sv.stats.MaxQueueDepth {
		sv.stats.MaxQueueDepth = d
	}
	if len(lv.Degraded) > 0 {
		sv.stats.DegradedEvents += int64(len(lv.Degraded))
		for l := range sv.lanes {
			if sv.lanes[l].active {
				sv.lanes[l].degraded = true
			}
		}
	}
	for l := range sv.lanes {
		if sv.lanes[l].active {
			sv.lanes[l].levels++
		}
	}
	if lv.Finished != 0 {
		if sv.stale {
			for v := range sv.degrees {
				sv.degrees[v] = sv.deg(int64(v))
			}
			sv.stale = false
		}
		sv.traversed = sess.TraversedEdges(lv.Finished, sv.degrees)
		for m := lv.Finished; m != 0; m &= m - 1 {
			sv.resolveLane(bits.TrailingZeros64(m), OutcomeServed, lv.End)
		}
		if err := sess.Release(lv.Finished); err != nil {
			return false, err
		}
	}
	return true, nil
}

// RunUntil runs sweeps until the server's clock reaches t (virtual
// seconds). A sweep that starts before t runs to its end, so the clock may
// pass t; an idle server's clock moves to t. Queries submitted at or
// before the clock join the next sweep.
func (sv *Server) RunUntil(t float64) error {
	until := secondsToVtime(t)
	for sv.sess.Now() < until {
		progressed, err := sv.step()
		if err != nil {
			return err
		}
		if !progressed {
			sv.sess.AdvanceTo(until)
		}
	}
	return nil
}

// drain runs sweeps until nothing is in flight and nothing queued can be
// admitted.
func (sv *Server) drain() error {
	for {
		progressed, err := sv.step()
		if err != nil || !progressed {
			return err
		}
	}
}

// ServeTrace plays an open-loop arrival trace against the server on the
// virtual clock and returns every query's outcome (in resolution order).
// It is the caller-driven loop: for each arrival in time order (ties keep
// trace order, so IDs increase with arrival) RunUntil its instant, then
// Submit it; then drain. A query arriving mid-sweep joins the next one,
// exactly as a real always-on loop would see it, and a fixed trace yields
// the same outcomes on every run.
func (sv *Server) ServeTrace(trace []Arrival) ([]ServedQuery, error) {
	if sv.closed {
		return nil, ErrServerClosed
	}
	idx := make([]int, len(trace))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int { return cmp.Compare(trace[i].At, trace[j].At) })
	start := len(sv.outcomes)
	for _, i := range idx {
		if err := sv.RunUntil(trace[i].At); err != nil {
			return sv.outcomes[start:], err
		}
		if _, err := sv.Submit(trace[i]); err != nil {
			return nil, err
		}
	}
	err := sv.drain()
	return sv.outcomes[start:], err
}

// TakeOutcomes returns the accumulated outcomes and clears them.
func (sv *Server) TakeOutcomes() []ServedQuery {
	out := sv.outcomes
	sv.outcomes = nil
	return out
}

// Cancel removes a query: dequeued if still waiting, cut loose at the next
// sweep boundary (lane reclaimed and scrubbed) if in flight. It reports
// whether the query was found still unresolved.
func (sv *Server) Cancel(id int) bool {
	if req, ok := sv.queue.Cancel(id); ok {
		sv.resolveQueued(req, OutcomeCancelled, sv.sess.Now())
		return true
	}
	for l := range sv.lanes {
		if sv.lanes[l].active && sv.lanes[l].req.ID == id && !sv.lanes[l].cancel {
			sv.lanes[l].cancel = true
			return true
		}
	}
	return false
}

// Drain runs sweeps until no query is queued or in flight, then returns
// the accumulated outcomes (clearing them) and the error of a sweep that
// failed unrescuably.
func (sv *Server) Drain() ([]ServedQuery, error) {
	err := sv.drain()
	return sv.TakeOutcomes(), err
}

// Close stops accepting queries, runs the in-flight ones to their end,
// cancels the queued ones and returns the error of those final sweeps.
// The outcomes stay for TakeOutcomes, and the stores under the runner stay
// open. A second Close does nothing.
func (sv *Server) Close() error {
	if sv.closed {
		return nil
	}
	sv.closed = true
	err := sv.drain()
	now := sv.sess.Now()
	for _, req := range sv.queue.Clear() {
		sv.resolveQueued(req, OutcomeCancelled, now)
	}
	return err
}

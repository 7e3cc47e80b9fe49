package serve

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"semibfs/internal/bfs"
	"semibfs/internal/nvm"
	"semibfs/internal/stats"
	"semibfs/internal/validate"
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
	// load experiments).
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

// SubmitOptions carry a query's serving parameters.
type SubmitOptions struct {
	// Deadline in virtual seconds relative to arrival; 0 uses the server
	// default.
	Deadline float64
	// Priority orders admission and priority-aware shedding: higher wins.
	Priority int
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

// Arrival is one open-loop trace entry for ServeTrace.
type Arrival struct {
	Root int64
	// At is the absolute virtual arrival time in seconds.
	At float64
	// Deadline (relative seconds; 0 = server default) and Priority are
	// the query's SubmitOptions.
	Deadline float64
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
// A server is deterministic when driven single-threaded (ServeTrace):
// virtual time and every outcome are a pure function of the trace,
// independent of Options.Workers. The live mode (Start) adds a background
// pump goroutine; Submit, Cancel, Drain and Close are then safe from any
// goroutine.
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond

	sess *bfs.BatchSession
	deg  func(int64) int64
	n    int64
	cfg  ServerConfig

	queue    *Queue
	lanes    []laneTrack
	nextID   int
	stats    ServerStats
	outcomes []ServedQuery

	closed  bool
	started bool
	loopErr error
	done    chan struct{}

	closeOnce sync.Once
}

// NewServer wires a server over an existing batch runner; deg is the
// degree oracle for traversed-edge accounting and n the vertex-universe
// size. The server shares the runner's stores; it closes none of them.
func NewServer(br *bfs.BatchRunner, deg func(int64) int64, n int64, cfg ServerConfig) *Server {
	sv := &Server{
		sess:  br.OpenSession(),
		deg:   deg,
		n:     n,
		cfg:   cfg,
		queue: NewQueue(cfg.QueueCap, cfg.Policy),
		lanes: make([]laneTrack, br.Lanes()),
	}
	sv.cond = sync.NewCond(&sv.mu)
	return sv
}

// Lanes returns the server's batch width B.
func (sv *Server) Lanes() int { return len(sv.lanes) }

// Now returns the server's virtual time in seconds.
func (sv *Server) Now() float64 {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sess.Now().Seconds()
}

// Stats snapshots the serving statistics.
func (sv *Server) Stats() ServerStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.stats
}

// Layers snapshots the cumulative per-layer storage-stack counters under
// the server's session (empty when the graphs are DRAM-resident).
func (sv *Server) Layers() nvm.StackStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sess.LayerTotals()
}

// QueueDepth returns the current submission-queue length.
func (sv *Server) QueueDepth() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.queue.Len()
}

// Submit enqueues a query at the current virtual time and returns its ID.
// The queue may shed it (or another query) immediately per the policy;
// shedding is visible in the outcomes, not in Submit's return. Submit
// never blocks on a full queue — backpressure is explicit.
func (sv *Server) Submit(root int64, opts SubmitOptions) (int, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return 0, ErrServerClosed
	}
	id, err := sv.enqueueLocked(root, sv.sess.Now(), opts)
	if err != nil {
		return 0, err
	}
	sv.cond.Broadcast()
	return id, nil
}

func (sv *Server) enqueueLocked(root int64, at vtime.Duration, opts SubmitOptions) (int, error) {
	if root < 0 || root >= sv.n {
		return 0, fmt.Errorf("semibfs: root %d outside [0,%d)", root, sv.n)
	}
	rel := opts.Deadline
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
		ID: id, Root: root,
		Arrival:  at,
		Deadline: dl,
		Priority: opts.Priority,
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
		tree := sv.sess.Tree(l)
		sq.TraversedEdges = validate.TraversedEdges(tree, sv.deg)
		if sv.cfg.KeepTrees {
			sq.Parents = append([]int64(nil), tree...)
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

// admitLocked moves queued requests into free lanes, at every sweep
// boundary.
func (sv *Server) admitLocked(now vtime.Duration) error {
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

// stepLocked runs one sweep and resolves its consequences. It returns
// false when there was nothing to do (no live lanes).
func (sv *Server) stepLocked() (bool, error) {
	sess := sv.sess
	now := sess.Now()

	if sv.cfg.BetweenSweeps != nil && !sv.closed {
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
		if err := sv.admitLocked(now); err != nil {
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
		for m := lv.Finished; m != 0; m &= m - 1 {
			sv.resolveLane(bits.TrailingZeros64(m), OutcomeServed, lv.End)
		}
		if err := sess.Release(lv.Finished); err != nil {
			return false, err
		}
	}
	return true, nil
}

// ServeTrace plays an open-loop arrival trace against the server on the
// virtual clock and returns every query's outcome (in resolution order).
// Arrivals are ingested at sweep boundaries: a query arriving mid-sweep
// joins the next one, exactly as a real always-on loop would see it. The
// trace's outcomes are deterministic: a fixed trace yields the same
// served/shed/expired sets regardless of Options.Workers.
//
// ServeTrace owns the server while it runs; it must not race Submit or a
// Start-ed pump loop.
func (sv *Server) ServeTrace(trace []Arrival) ([]ServedQuery, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrServerClosed
	}
	// Stable-sort by arrival time (ties keep trace order), preserving the
	// caller's ID assignment expectations: IDs increase with arrival.
	idx := make([]int, len(trace))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ { // insertion sort: stable, short traces
		for j := i; j > 0 && trace[idx[j]].At < trace[idx[j-1]].At; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	// Arrival instants in ticks, fixed up front so ingestion and idle
	// advancement compare exactly (no float round-trips).
	atV := make([]vtime.Duration, len(trace))
	for i, a := range trace {
		atV[i] = secondsToVtime(a.At)
	}
	next := 0
	ingest := func(upto vtime.Duration) error {
		for next < len(idx) {
			i := idx[next]
			if atV[i] > upto {
				return nil
			}
			if _, err := sv.enqueueLocked(trace[i].Root, atV[i], SubmitOptions{
				Deadline: trace[i].Deadline, Priority: trace[i].Priority,
			}); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	start := len(sv.outcomes)
	for {
		if err := ingest(sv.sess.Now()); err != nil {
			return nil, err
		}
		progressed, err := sv.stepLocked()
		if err != nil {
			return sv.outcomes[start:], err
		}
		if !progressed && sv.sess.InUse() == 0 && sv.queue.Len() == 0 {
			if next >= len(idx) {
				break
			}
			// Idle until the next arrival.
			sv.sess.AdvanceTo(atV[idx[next]])
		}
	}
	return sv.outcomes[start:], nil
}

// TakeOutcomes returns the accumulated outcomes and clears them.
func (sv *Server) TakeOutcomes() []ServedQuery {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := sv.outcomes
	sv.outcomes = nil
	return out
}

// Cancel removes a query: dequeued if still waiting, cut loose at the next
// sweep boundary (lane reclaimed and scrubbed) if in flight. It reports
// whether the query was found still unresolved.
func (sv *Server) Cancel(id int) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, req := range sv.queue.Snapshot() {
		if req.ID == id {
			sv.queue.Cancel(id)
			sv.resolveQueued(req, OutcomeCancelled, sv.sess.Now())
			sv.cond.Broadcast()
			return true
		}
	}
	for l := range sv.lanes {
		if sv.lanes[l].active && sv.lanes[l].req.ID == id && !sv.lanes[l].cancel {
			sv.lanes[l].cancel = true
			sv.cond.Broadcast()
			return true
		}
	}
	return false
}

// Start launches the live pump loop: a background goroutine that sweeps
// whenever there is queued or in-flight work. With a live loop running,
// Submit/Cancel/Drain/Close are safe from any goroutine. Virtual time
// still only advances with the work performed.
func (sv *Server) Start() {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.started || sv.closed {
		return
	}
	sv.started = true
	sv.done = make(chan struct{})
	go sv.pumpLoop()
}

func (sv *Server) pumpLoop() {
	defer close(sv.done)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for {
		progressed, err := sv.stepLocked()
		if err != nil {
			// Device death with no rescue: the loop parks, Submit still
			// works (the next pump attempt will fail the same way unless
			// the fault healed), Close can still drain.
			sv.loopErr = err
		}
		if progressed {
			sv.cond.Broadcast()
			continue
		}
		if sv.closed {
			// Drain-and-stop: queued work is cancelled, in-flight work
			// already resolved by the final sweeps above.
			now := sv.sess.Now()
			for _, req := range sv.queue.Snapshot() {
				sv.queue.Cancel(req.ID)
				sv.resolveQueued(req, OutcomeCancelled, now)
			}
			sv.cond.Broadcast()
			return
		}
		// Idle — or, after a sweep that errored and cleared the lanes, a
		// queue that cannot progress: park until state changes.
		sv.cond.Wait()
	}
}

// Drain blocks until no query is queued or in flight, then returns the
// accumulated outcomes (clearing them). It returns the pump loop's sticky
// error, if a sweep failed unrescuably.
func (sv *Server) Drain() ([]ServedQuery, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for sv.queue.Len() > 0 || sv.sess.InUse() != 0 {
		if !sv.started || sv.loopErr != nil || sv.closed {
			break
		}
		sv.cond.Wait()
	}
	out := sv.outcomes
	sv.outcomes = nil
	return out, sv.loopErr
}

// Close stops accepting queries, lets in-flight work finish (queued work
// is cancelled) and stops the pump loop — exactly once, no matter how many
// goroutines call it. The stores under the runner stay open.
func (sv *Server) Close() error {
	sv.closeOnce.Do(func() {
		sv.mu.Lock()
		sv.closed = true
		started := sv.started
		done := sv.done
		sv.cond.Broadcast()
		sv.mu.Unlock()
		if started {
			<-done
		} else {
			// No pump loop: drain synchronously for deterministic use.
			sv.mu.Lock()
			for {
				progressed, err := sv.stepLocked()
				if err != nil {
					sv.loopErr = err
					break
				}
				if !progressed {
					break
				}
			}
			now := sv.sess.Now()
			for _, req := range sv.queue.Snapshot() {
				sv.queue.Cancel(req.ID)
				sv.resolveQueued(req, OutcomeCancelled, now)
			}
			sv.mu.Unlock()
		}
	})
	return nil
}

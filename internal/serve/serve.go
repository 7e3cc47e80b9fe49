// Package serve is the online serving layer: an always-on continuous-
// batching loop (Server, in server.go) over the lane scheduler of
// internal/bfs, fed by the pure, deterministic admission machinery in this
// file — a bounded submission queue with explicit shedding policies,
// per-request virtual-time deadlines, and priority-aware ordering. The
// queue knows nothing about BFS — requests are opaque (ID, root, timing)
// — so its invariants (no request lost, none served twice, shedding
// deterministic for a fixed arrival trace) are testable and fuzzable in
// isolation; semibfs re-exports Server as its public serving API.
package serve

import (
	"fmt"

	"semibfs/internal/vtime"
)

// Request is one admission-queue entry. All times are virtual.
type Request struct {
	// ID is the caller-assigned unique identity; Root is opaque payload.
	ID   int
	Root int64
	// Arrival is the absolute virtual time the request entered the system.
	Arrival vtime.Duration
	// Deadline is the absolute virtual time after which the request is
	// worthless; 0 means none. A queued request whose deadline passes is
	// expired (never started); an admitted one is cancelled by the caller.
	Deadline vtime.Duration
	// Priority orders admission: higher wins. Ties break by arrival, then
	// by ID, so a fixed trace always admits in a fixed order.
	Priority int
}

// Expired reports whether the request's deadline has passed at now.
func (r Request) Expired(now vtime.Duration) bool {
	return r.Deadline > 0 && now >= r.Deadline
}

// Policy selects which request to shed when the queue is full.
type Policy int

const (
	// RejectNewest sheds the arriving request itself (tail drop): the
	// queue's contents never change on overload, so admitted waiters keep
	// their place — the classic bounded-latency choice.
	RejectNewest Policy = iota
	// RejectOldest sheds the head-most (earliest-arrival) queued request
	// in favor of the arrival: freshest-work-wins.
	RejectOldest
	// RejectLowestPriority sheds the lowest-priority request — the
	// arrival, if nothing queued is lower. Among equals, the newest
	// arrival loses, so the policy degenerates to RejectNewest under
	// uniform priorities.
	RejectLowestPriority
)

func (p Policy) String() string {
	switch p {
	case RejectNewest:
		return "reject-newest"
	case RejectOldest:
		return "reject-oldest"
	case RejectLowestPriority:
		return "reject-lowest-priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject-newest", "newest":
		return RejectNewest, nil
	case "reject-oldest", "oldest":
		return RejectOldest, nil
	case "reject-lowest-priority", "priority":
		return RejectLowestPriority, nil
	default:
		return 0, fmt.Errorf("serve: unknown shed policy %q (want reject-newest, reject-oldest or reject-lowest-priority)", s)
	}
}

// Queue is the bounded submission queue. Offer either accepts the request
// or sheds one (possibly the offered request itself) per the policy; Take
// pops the next request to admit. The queue is deterministic: its behavior
// is a pure function of the call sequence. It is not safe for concurrent
// use — the serving loop owns it.
type Queue struct {
	cap    int // <= 0: unbounded
	policy Policy
	reqs   []Request // arrival order: reqs[0] is the oldest
}

// NewQueue returns a queue shedding per policy once len reaches cap;
// cap <= 0 means unbounded (nothing is ever shed).
func NewQueue(cap int, policy Policy) *Queue {
	return &Queue{cap: cap, policy: policy}
}

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.reqs) }

// Snapshot returns the queued requests in arrival order (a copy).
func (q *Queue) Snapshot() []Request {
	return append([]Request(nil), q.reqs...)
}

// Offer submits r. When the queue is full one request is shed — returned
// in shed — per the policy; shed is empty when r was simply enqueued. The
// offered request itself may be the one shed (tail drop).
func (q *Queue) Offer(r Request) (shed []Request) {
	if q.cap <= 0 || len(q.reqs) < q.cap {
		q.reqs = append(q.reqs, r)
		return nil
	}
	victim := -1 // index into reqs; -1 sheds the arrival itself
	switch q.policy {
	case RejectNewest:
		// victim stays -1.
	case RejectOldest:
		victim = 0
	case RejectLowestPriority:
		// Find the lowest-priority queued request, breaking ties toward
		// the newest (largest arrival, then largest ID): freshest of the
		// worst loses. The arrival is shed unless something queued is
		// strictly worse, or ties it — the arrival is always the newest.
		lowest := -1
		for i, cand := range q.reqs {
			if lowest < 0 || worseThan(cand, q.reqs[lowest]) {
				lowest = i
			}
		}
		if lowest >= 0 && !betterThan(q.reqs[lowest], r) {
			victim = lowest
		}
	}
	if victim < 0 {
		return []Request{r}
	}
	shed = []Request{q.reqs[victim]}
	q.reqs = append(q.reqs[:victim], q.reqs[victim+1:]...)
	q.reqs = append(q.reqs, r)
	return shed
}

// worseThan orders shedding candidates: lower priority first, then newest
// arrival, then largest ID.
func worseThan(a, b Request) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.Arrival != b.Arrival {
		return a.Arrival > b.Arrival
	}
	return a.ID > b.ID
}

// betterThan orders admission: higher priority first, then earliest
// arrival, then smallest ID.
func betterThan(a, b Request) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// Expire removes and returns every queued request whose deadline has
// passed at now, in arrival order.
func (q *Queue) Expire(now vtime.Duration) (expired []Request) {
	kept := q.reqs[:0]
	for _, r := range q.reqs {
		if r.Expired(now) {
			expired = append(expired, r)
		} else {
			kept = append(kept, r)
		}
	}
	q.reqs = kept
	return expired
}

// Take removes and returns the next request to admit — highest priority,
// then earliest arrival, then smallest ID. ok is false when empty.
func (q *Queue) Take() (r Request, ok bool) {
	best := -1
	for i, cand := range q.reqs {
		if best < 0 || betterThan(cand, q.reqs[best]) {
			best = i
		}
	}
	if best < 0 {
		return Request{}, false
	}
	r = q.reqs[best]
	q.reqs = append(q.reqs[:best], q.reqs[best+1:]...)
	return r, true
}

// Cancel removes the queued request with the given ID, reporting whether
// it was present.
func (q *Queue) Cancel(id int) bool {
	for i, r := range q.reqs {
		if r.ID == id {
			q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
			return true
		}
	}
	return false
}

package serve

import (
	"testing"

	"semibfs/internal/vtime"
)

func req(id int, arr, dl vtime.Duration, prio int) Request {
	return Request{ID: id, Root: int64(id), Arrival: arr, Deadline: dl, Priority: prio}
}

func TestQueuePolicies(t *testing.T) {
	// Fill a 2-slot queue with ids 0,1; offering 2 then depends on policy.
	cases := []struct {
		policy    Policy
		wantShed  int // shed request ID
		wantQueue []int
	}{
		{RejectNewest, 2, []int{0, 1}},
		{RejectOldest, 0, []int{1, 2}},
		// Uniform priorities: the arrival is the newest of the worst.
		{RejectLowestPriority, 2, []int{0, 1}},
	}
	for _, c := range cases {
		q := NewQueue(2, c.policy)
		for id := 0; id < 2; id++ {
			if shed := q.Offer(req(id, vtime.Duration(id), 0, 0)); len(shed) != 0 {
				t.Fatalf("%v: shed below capacity: %v", c.policy, shed)
			}
		}
		shed := q.Offer(req(2, 2, 0, 0))
		if len(shed) != 1 || shed[0].ID != c.wantShed {
			t.Fatalf("%v: shed %v, want id %d", c.policy, shed, c.wantShed)
		}
		if got := q.Snapshot(); len(got) != len(c.wantQueue) {
			t.Fatalf("%v: queue %v, want ids %v", c.policy, got, c.wantQueue)
		} else {
			for i, id := range c.wantQueue {
				if got[i].ID != id {
					t.Fatalf("%v: queue[%d] = id %d, want %d", c.policy, i, got[i].ID, id)
				}
			}
		}
	}
}

func TestQueuePriorityAwareShedding(t *testing.T) {
	q := NewQueue(2, RejectLowestPriority)
	q.Offer(req(0, 0, 0, 5))
	q.Offer(req(1, 1, 0, 1))
	// A higher-priority arrival displaces the lowest-priority entry.
	if shed := q.Offer(req(2, 2, 0, 3)); len(shed) != 1 || shed[0].ID != 1 {
		t.Fatalf("high-priority offer shed %v, want id 1", shed)
	}
	// A lower-priority arrival is itself shed.
	if shed := q.Offer(req(3, 3, 0, 2)); len(shed) != 1 || shed[0].ID != 3 {
		t.Fatalf("low-priority offer shed %v, want id 3", shed)
	}
	// Take order: priority desc, then arrival, then ID.
	if r, ok := q.Take(); !ok || r.ID != 0 {
		t.Fatalf("take = %v, want id 0", r)
	}
	if r, ok := q.Take(); !ok || r.ID != 2 {
		t.Fatalf("take = %v, want id 2", r)
	}
	if _, ok := q.Take(); ok {
		t.Fatal("take from empty queue succeeded")
	}
}

func TestQueueUnboundedNeverSheds(t *testing.T) {
	q := NewQueue(0, RejectNewest)
	for id := 0; id < 1000; id++ {
		if shed := q.Offer(req(id, vtime.Duration(id), 0, 0)); len(shed) != 0 {
			t.Fatalf("unbounded queue shed %v", shed)
		}
	}
	if q.Len() != 1000 {
		t.Fatalf("queued %d, want 1000", q.Len())
	}
}

func TestQueueExpireAndCancel(t *testing.T) {
	q := NewQueue(0, RejectNewest)
	q.Offer(req(0, 0, 10, 0))
	q.Offer(req(1, 0, 0, 0)) // no deadline
	q.Offer(req(2, 0, 20, 0))
	exp := q.Expire(10)
	if len(exp) != 1 || exp[0].ID != 0 {
		t.Fatalf("expired %v, want id 0", exp)
	}
	if r, ok := q.Cancel(2); !ok || r.ID != 2 || r.Deadline != 20 {
		t.Fatalf("cancel of queued id 2 = %+v, %v; want the request back", r, ok)
	}
	if _, ok := q.Cancel(2); ok {
		t.Fatal("cancel of absent id 2 succeeded")
	}
	if _, ok := q.Cancel(99); ok {
		t.Fatal("cancel of absent id 99 succeeded")
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d, want 1", q.Len())
	}
	q.Offer(req(3, 1, 0, 0))
	if got := q.Clear(); len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 || q.Len() != 0 {
		t.Fatalf("Clear returned %v and left %d queued; want ids 1 and 3 in arrival order and none", got, q.Len())
	}
	// Expired(now) is edge-inclusive; deadline 0 means none.
	if (Request{Deadline: 5}).Expired(4) || !(Request{Deadline: 5}).Expired(5) {
		t.Fatal("deadline edge semantics wrong")
	}
	if (Request{}).Expired(1 << 40) {
		t.Fatal("zero deadline expired")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"reject-newest": RejectNewest, "newest": RejectNewest,
		"reject-oldest": RejectOldest, "oldest": RejectOldest,
		"reject-lowest-priority": RejectLowestPriority, "priority": RejectLowestPriority,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() == "" {
			t.Fatalf("policy %v has empty String", got)
		}
	}
	if _, err := ParsePolicy("drop-table"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// FuzzAdmission drives the whole admission lifecycle — bounded queue,
// shedding, deadlines, priorities, lane occupancy — from a random trace and
// checks the conservation law the serving layer promises: every submitted
// request ends in exactly one of served / shed / expired, exactly once.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 255, 255}, uint8(1), uint8(2), uint8(1))
	f.Add([]byte{9, 1, 8, 2, 7, 3}, uint8(4), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, lanes, qcap, pol uint8) {
		nLanes := int(lanes)%4 + 1
		q := NewQueue(int(qcap)%5, Policy(pol)%3)

		// Decode the trace: each byte is one request; bits pick the
		// inter-arrival gap, deadline slack and priority.
		type ev struct{ r Request }
		var trace []ev
		var at vtime.Duration
		for i, b := range data {
			at += vtime.Duration(b >> 5) // 0..7 gap
			var dl vtime.Duration
			if b&0x10 != 0 {
				dl = at + vtime.Duration(b&0x0f)*3
			}
			trace = append(trace, ev{Request{
				ID: i, Root: int64(b), Arrival: at, Deadline: dl, Priority: int(b & 0x03),
			}})
		}

		const serviceTime = 10
		outcome := make(map[int]string)
		record := func(id int, what string) {
			if prev, dup := outcome[id]; dup {
				t.Fatalf("request %d resolved twice: %s then %s", id, prev, what)
			}
			outcome[id] = what
		}
		type lane struct {
			busy bool
			r    Request
			done vtime.Duration
		}
		running := make([]lane, nLanes)
		now := vtime.Duration(0)
		next := 0
		for {
			// Finish lanes due at now; expire overdue in-flight work.
			for i := range running {
				if running[i].busy && now >= running[i].done {
					record(running[i].r.ID, "served")
					running[i].busy = false
				} else if running[i].busy && running[i].r.Expired(now) {
					record(running[i].r.ID, "expired")
					running[i].busy = false
				}
			}
			// Ingest arrivals at or before now.
			for next < len(trace) && trace[next].r.Arrival <= now {
				for _, s := range q.Offer(trace[next].r) {
					record(s.ID, "shed")
				}
				next++
			}
			for _, e := range q.Expire(now) {
				record(e.ID, "expired")
			}
			// Admit into free lanes.
			for i := range running {
				if running[i].busy {
					continue
				}
				r, ok := q.Take()
				if !ok {
					break
				}
				running[i] = lane{busy: true, r: r, done: now + serviceTime}
			}
			// Advance to the next event.
			var nextT vtime.Duration
			have := false
			consider := func(ts vtime.Duration) {
				if ts > now && (!have || ts < nextT) {
					nextT, have = ts, true
				}
			}
			for i := range running {
				if running[i].busy {
					consider(running[i].done)
					if running[i].r.Deadline > 0 {
						consider(running[i].r.Deadline)
					}
				}
			}
			if next < len(trace) {
				consider(trace[next].r.Arrival)
			}
			for _, r := range q.Snapshot() {
				if r.Deadline > 0 {
					consider(r.Deadline)
				}
			}
			if !have {
				break
			}
			now = nextT
		}
		// Conservation: every request resolved exactly once.
		if len(outcome) != len(trace) {
			for _, e := range trace {
				if _, ok := outcome[e.r.ID]; !ok {
					t.Fatalf("request %d lost (never served, shed, or expired)", e.r.ID)
				}
			}
		}
		if q.Len() != 0 {
			t.Fatalf("queue not drained: %d left", q.Len())
		}
	})
}

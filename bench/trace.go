package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"semibfs/internal/nvm"
	"semibfs/internal/vtime"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around a call it makes into the program (or, for layer "media", around a
// request that reached the base store under the storage stack).
type span struct {
	Layer, Name string
	// Start / End are host nanoseconds since the tracer's epoch.
	Start, End int64
	// VStart / VEnd are virtual nanoseconds when a clock was passed, else -1.
	VStart, VEnd int64
	// Parent indexes the enclosing span (-1 for a root); Op is the
	// workload op the span belongs to (-1 during set-up).
	Parent, Op int
}

// maxStoredSpans bounds trace memory: beyond it spans still count toward
// the self-time table but are not kept for the Chrome trace file.
const maxStoredSpans = 1 << 17

// tracer records spans in memory. A nil *tracer is the untraced run: every
// method is a no-op, so one code path serves both runs.
//
// It is single-goroutine by design — the harness pins every engine to one
// real worker, so calls into the program and the media requests under them
// arrive on the calling goroutine.
type tracer struct {
	epoch   time.Time
	spans   []span
	open    []openSpan
	op      int
	dropped int
	// self / total accumulate per-layer self time and root-span time in
	// host ns as spans close, so dropped spans are still accounted.
	self  map[string]int64
	calls map[string]int64
	total int64
	// simCursor is the virtual-time cursor endSim advances.
	simCursor int64
}

type openSpan struct {
	span
	children int64 // host ns covered by closed child spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, self: map[string]int64{}, calls: map[string]int64{}}
}

func vnow(clock *vtime.Clock) int64 {
	if clock == nil {
		return -1
	}
	return int64(clock.Now())
}

// setOp tags subsequent spans with workload op i (-1 = set-up).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// begin opens a span; pair it with end. clock may be nil.
func (t *tracer) begin(layer, name string, clock *vtime.Clock) {
	if t == nil {
		return
	}
	t.open = append(t.open, openSpan{span: span{
		Layer: layer, Name: name,
		Start: int64(time.Since(t.epoch)), VStart: vnow(clock),
		Parent: -1, Op: t.op,
	}})
}

// end closes the innermost open span.
func (t *tracer) end(clock *vtime.Clock) {
	if t != nil {
		t.endAt(vnow(clock))
	}
}

func (t *tracer) endAt(vend int64) {
	now := int64(time.Since(t.epoch))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	o.End, o.VEnd = now, vend
	dur := o.End - o.Start
	t.self[o.Layer] += dur - o.children
	t.calls[o.Layer]++
	if len(t.open) > 0 {
		t.open[len(t.open)-1].children += dur
	} else {
		t.total += dur
	}
	if len(t.spans) >= maxStoredSpans {
		t.dropped++
		return
	}
	// Parents close after their children, so a child cannot know its
	// parent's final index yet: record the nesting depth and resolve the
	// parent indices in one pass when the trace is written.
	o.Parent = len(t.open)
	t.spans = append(t.spans, o.span)
}

// endSim closes the innermost span of an engine call that reported its own
// virtual duration: the span is placed on a virtual timeline that runs
// from op to op (engines keep their clocks to themselves).
func (t *tracer) endSim(simNs int64) {
	if t == nil {
		return
	}
	o := &t.open[len(t.open)-1]
	o.VStart = t.simCursor
	t.simCursor += simNs
	t.endAt(t.simCursor)
}

// do runs fn inside a span.
func (t *tracer) do(layer, name string, clock *vtime.Clock, fn func() error) error {
	t.begin(layer, name, clock)
	err := fn()
	t.end(clock)
	return err
}

// resolveParents turns the nesting depths recorded by end into parent
// indices. Spans are stored in close order, so the parent of a span at
// depth d is the next later-stored span at depth d-1.
func (t *tracer) resolveParents() {
	next := map[int]int{} // depth -> index of the most recent span seen (scanning backwards)
	for i := len(t.spans) - 1; i >= 0; i-- {
		d := t.spans[i].Parent
		next[d] = i
		if d == 0 {
			t.spans[i].Parent = -1
			continue
		}
		if p, ok := next[d-1]; ok && p > i {
			t.spans[i].Parent = p
		} else {
			t.spans[i].Parent = -1 // parent was dropped at the storage cap
		}
	}
}

// selfTimeRow is one line of the per-layer self-time table.
type selfTimeRow struct {
	Layer  string  `json:"layer"`
	Calls  int64   `json:"calls"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes returns the per-layer self-time table (largest first) and the
// summed duration of the root spans; the rows sum to that total.
func (t *tracer) selfTimes() ([]selfTimeRow, float64) {
	rows := make([]selfTimeRow, 0, len(t.self))
	for layer, ns := range t.self {
		rows = append(rows, selfTimeRow{
			Layer: layer, Calls: t.calls[layer],
			SelfMs: float64(ns) / 1e6, Share: ratio(float64(ns), float64(t.total)),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows, float64(t.total) / 1e6
}

// writeSelfTimes prints the table; its rows sum to the root spans' total
// (TestTracerSelfTimes), so the last line is that total.
func writeSelfTimes(w io.Writer, workload string, rows []selfTimeRow) {
	fmt.Fprintf(w, "self time by layer, traced run of %s\n", workload)
	fmt.Fprintf(w, "%-12s %10s %12s %8s\n", "layer", "calls", "self_ms", "share")
	var sum, share float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %12.3f %7.1f%%\n", r.Layer, r.Calls, r.SelfMs, 100*r.Share)
		sum += r.SelfMs
		share += r.Share
	}
	fmt.Fprintf(w, "%-12s %10s %12.3f %7.1f%%  (= root spans)\n", "sum", "", sum, 100*share)
}

// writeChrome writes the stored spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	t.resolveParents()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.Parent, "op": s.Op}
		if s.VStart >= 0 {
			args["vstart_ns"], args["vend_ns"] = s.VStart, s.VEnd
		}
		events[i] = event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMedia is the harness-owned base store: it sits under the whole
// storage stack, so its spans are "time below the stack" and the enclosing
// engine span's self time is "time in the engine and the stack's layers".
// It passes the clock through untouched, which keeps virtual time and
// trees identical to the untraced run.
type tracedMedia struct {
	inner nvm.Storage
	tr    *tracer
}

// traceBase wraps a media store when tracing; untraced runs get the store
// itself, so the untraced stack is exactly the program's own.
func traceBase(tr *tracer, st nvm.Storage) nvm.Storage {
	if tr == nil {
		return st
	}
	return &tracedMedia{inner: st, tr: tr}
}

func (m *tracedMedia) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	m.tr.begin("media", "ReadAt", clock)
	err := m.inner.ReadAt(clock, p, off)
	m.tr.end(clock)
	return err
}

func (m *tracedMedia) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	m.tr.begin("media", "WriteAt", clock)
	err := m.inner.WriteAt(clock, p, off)
	m.tr.end(clock)
	return err
}

func (m *tracedMedia) Size() int64         { return m.inner.Size() }
func (m *tracedMedia) Device() *nvm.Device { return m.inner.Device() }
func (m *tracedMedia) Close() error        { return m.inner.Close() }

// Unwrap lets nvm.WalkStack reach the real media's counters.
func (m *tracedMedia) Unwrap() nvm.Storage { return m.inner }

package nvm

import (
	"slices"
	"sort"

	"semibfs/internal/vtime"
)

// Device is the queueing model for one NVM device. Simulated workers
// submit requests stamped with their current virtual time; the device
// assigns each request to the earliest-free internal channel, queueing it
// if all channels are busy at the request's arrival time, and returns the
// completion time. The caller advances its clock to that completion time,
// which is how device stalls propagate into BFS virtual time.
//
// The model intentionally mirrors what iostat observes at the block layer:
// avgqu-sz is the time-weighted number of in-flight requests (computed via
// Little's law as total response time over the observation span) and
// avgrq-sz is the mean request size in 512-byte sectors.
//
// Queue state is in absolute virtual time but every engine runs on its own
// clock, so the device has epochs. A run starting at s opens one (Reset)
// exactly when another timeline has submitted since the engine's previous
// run ended (or it never ran) and some request arrived at or after s
// (OpenEpoch). A timeline continuing its own previous run never opens one,
// even when its own background traffic arrived after its last barrier.
type Device struct {
	profile Profile
	// channelFree[i] is the virtual time at which channel i next idles.
	channelFree []vtime.Duration
	requests    int64 // every request ever accepted; Reset keeps it
	stats       deviceStats
	series      *seriesRecorder
}

type deviceStats struct {
	reads         int64
	writes        int64
	readBytes     int64
	writeBytes    int64
	totalWait     vtime.Duration // queueing delay before service
	totalService  vtime.Duration
	totalResponse vtime.Duration // wait + service
	firstArrival  vtime.Duration
	lastArrival   vtime.Duration
	lastComplete  vtime.Duration
	sawRequest    bool

	// Health accounting, fed by the fault-injection and retry layers.
	errors  int64
	retries int64
	backoff vtime.Duration
	dead    bool
}

// NewDevice returns a Device with the given profile. The optional
// binWidth, when positive, enables per-bin time-series recording used by
// the Figure 12/13 reproductions.
func NewDevice(p Profile, binWidth vtime.Duration) *Device {
	d := &Device{
		profile:     p,
		channelFree: make([]vtime.Duration, p.Channels),
	}
	if binWidth > 0 {
		d.series = newSeriesRecorder(binWidth)
	}
	return d
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.profile }

// DecodeTime returns the host time to decode n encoded bytes read from the
// device (Profile.DecodeTime). A nil device, a store with no device model,
// decodes at DefaultDecodeBandwidth.
func (d *Device) DecodeTime(n int) vtime.Duration {
	if d == nil {
		return Profile{}.DecodeTime(n)
	}
	return d.profile.DecodeTime(n)
}

// Read submits a read of n bytes arriving at virtual time at and returns
// the request's completion time.
func (d *Device) Read(at vtime.Duration, n int) vtime.Duration {
	return d.submit(at, n, false)
}

// Write submits a write of n bytes arriving at virtual time at and
// returns the request's completion time.
func (d *Device) Write(at vtime.Duration, n int) vtime.Duration {
	return d.submit(at, n, true)
}

func (d *Device) submit(at vtime.Duration, n int, write bool) vtime.Duration {
	// A block device transfers whole sectors: round the request up.
	n = (n + SectorSize - 1) / SectorSize * SectorSize
	if n == 0 {
		n = SectorSize
	}
	var service vtime.Duration
	if write {
		service = d.profile.WriteServiceTime(n)
	} else {
		service = d.profile.ReadServiceTime(n)
	}

	// Earliest-free channel wins; ties broken by index for determinism.
	best := 0
	for i := 1; i < len(d.channelFree); i++ {
		if d.channelFree[i] < d.channelFree[best] {
			best = i
		}
	}
	start := at
	if d.channelFree[best] > start {
		start = d.channelFree[best]
	}
	complete := start + service
	d.channelFree[best] = complete

	d.requests++
	s := &d.stats
	if !s.sawRequest || at < s.firstArrival {
		s.firstArrival = at
	}
	s.lastArrival = max(s.lastArrival, at)
	s.sawRequest = true
	if complete > s.lastComplete {
		s.lastComplete = complete
	}
	wait := start - at
	s.totalWait += wait
	s.totalService += service
	s.totalResponse += complete - at
	if write {
		s.writes++
		s.writeBytes += int64(n)
	} else {
		s.reads++
		s.readBytes += int64(n)
	}
	if d.series != nil {
		d.series.record(at, complete, n)
	}
	return complete
}

// EarliestFree returns the earliest virtual time at which one of the
// device's channels next idles — the load signal the mirror layer uses
// for least-loaded replica selection. It is 0 for an idle device.
func (d *Device) EarliestFree() vtime.Duration {
	best := d.channelFree[0]
	for _, t := range d.channelFree[1:] {
		if t < best {
			best = t
		}
	}
	return best
}

// NoteError records one failed request against the device's health
// accounting (the request itself may or may not have been charged time).
func (d *Device) NoteError() { d.stats.errors++ }

// NoteRetry records one retry attempt and the virtual backoff time the
// caller charged before reissuing the request.
func (d *Device) NoteRetry(backoff vtime.Duration) {
	d.stats.retries++
	d.stats.backoff += backoff
}

// MarkDead records that the device has permanently failed. Deadness is a
// health annotation only: the queueing model keeps accepting requests (a
// dead device's store layer is what refuses them).
func (d *Device) MarkDead() { d.stats.dead = true }

// Stats is a snapshot of the device's accumulated request statistics.
type Stats struct {
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	// Errors / Retries count failed requests and retry attempts noted by
	// the resilience layers; Backoff is the total virtual backoff time
	// charged before retries; Dead reports a permanent device failure.
	Errors  int64
	Retries int64
	Backoff vtime.Duration
	Dead    bool
	// AvgQueueSize is iostat's avgqu-sz: the time-averaged number of
	// in-flight (queued + in-service) requests over the observation
	// span, computed by Little's law.
	AvgQueueSize float64
	// AvgRequestSectors is iostat's avgrq-sz: mean request size in
	// 512-byte sectors.
	AvgRequestSectors float64
	// AvgWait is the mean queueing delay per request.
	AvgWait vtime.Duration
	// AvgService is the mean service time per request.
	AvgService vtime.Duration
	// Span is the observation interval (first arrival to last
	// completion).
	Span vtime.Duration
	// Utilization is the fraction of channel-seconds spent serving.
	Utilization float64
}

// Snapshot returns the device's statistics so far.
func (d *Device) Snapshot() Stats {
	s := d.stats
	n := s.reads + s.writes
	out := Stats{
		Reads:      s.reads,
		Writes:     s.writes,
		ReadBytes:  s.readBytes,
		WriteBytes: s.writeBytes,
		Errors:     s.errors,
		Retries:    s.retries,
		Backoff:    s.backoff,
		Dead:       s.dead,
	}
	if n == 0 {
		return out
	}
	span := s.lastComplete - s.firstArrival
	out.Span = span
	if span > 0 {
		out.AvgQueueSize = float64(s.totalResponse) / float64(span)
		out.Utilization = float64(s.totalService) /
			(float64(span) * float64(len(d.channelFree)))
	}
	out.AvgRequestSectors = float64(s.readBytes+s.writeBytes) /
		float64(n) / SectorSize
	out.AvgWait = s.totalWait / vtime.Duration(n)
	out.AvgService = s.totalService / vtime.Duration(n)
	return out
}

// Requests returns the device's lifetime request count; Reset keeps it.
func (d *Device) Requests() int64 { return d.requests }

// OpenEpoch resets the device when the epoch rule (see Device) opens one
// for a run starting at start; seen is Requests when the engine's previous
// run ended (0 if it never ran).
func (d *Device) OpenEpoch(start vtime.Duration, seen int64) {
	if d.requests != seen && d.stats.sawRequest && d.stats.lastArrival >= start {
		d.Reset()
	}
}

// StackDevices returns every device the given stacks charge, each once, in
// walk order.
func StackDevices(stores ...Storage) []*Device {
	var out []*Device
	for _, st := range stores {
		WalkStack(st, func(s Storage) {
			if d := s.Device(); d != nil && !slices.Contains(out, d) {
				out = append(out, d)
			}
		})
	}
	return out
}

// Reset clears accumulated statistics and queue state: it opens a new
// epoch unconditionally.
func (d *Device) Reset() {
	for i := range d.channelFree {
		d.channelFree[i] = 0
	}
	d.stats = deviceStats{}
	if d.series != nil {
		d.series.reset()
	}
}

// SeriesPoint is one time bin of the device's request activity, mirroring
// a line of `iostat -x` output.
type SeriesPoint struct {
	Start             vtime.Duration
	Requests          int64
	AvgQueueSize      float64
	AvgRequestSectors float64
}

// Series returns the per-bin activity recorded so far, in time order, or
// nil if series recording was not enabled.
func (d *Device) Series() []SeriesPoint {
	if d.series == nil {
		return nil
	}
	return d.series.points()
}

// seriesRecorder accumulates per-bin request statistics. Response time is
// attributed to the bin of the request's arrival, which matches how
// iostat's sampling attributes short requests at our bin widths.
type seriesRecorder struct {
	binWidth vtime.Duration
	bins     map[int64]*seriesBin
}

type seriesBin struct {
	requests      int64
	bytes         int64
	totalResponse vtime.Duration
}

func newSeriesRecorder(binWidth vtime.Duration) *seriesRecorder {
	return &seriesRecorder{binWidth: binWidth, bins: make(map[int64]*seriesBin)}
}

func (r *seriesRecorder) record(at, complete vtime.Duration, n int) {
	idx := int64(at / r.binWidth)
	b := r.bins[idx]
	if b == nil {
		b = &seriesBin{}
		r.bins[idx] = b
	}
	b.requests++
	b.bytes += int64(n)
	b.totalResponse += complete - at
}

func (r *seriesRecorder) reset() { r.bins = make(map[int64]*seriesBin) }

func (r *seriesRecorder) points() []SeriesPoint {
	idxs := make([]int64, 0, len(r.bins))
	for i := range r.bins {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	pts := make([]SeriesPoint, 0, len(idxs))
	for _, i := range idxs {
		b := r.bins[i]
		p := SeriesPoint{
			Start:    vtime.Duration(i) * r.binWidth,
			Requests: b.requests,
		}
		if b.requests > 0 {
			p.AvgQueueSize = float64(b.totalResponse) / float64(r.binWidth)
			p.AvgRequestSectors = float64(b.bytes) / float64(b.requests) / SectorSize
		}
		pts = append(pts, p)
	}
	return pts
}

package nvm

import (
	"math"
	"testing"

	"semibfs/internal/vtime"
)

// testProfile is a device with easy arithmetic: 10 us latency,
// 1 GB/s (= 1 byte/ns), 2 channels.
var testProfile = Profile{
	Name:           "test",
	ReadLatency:    10 * vtime.Microsecond,
	WriteLatency:   20 * vtime.Microsecond,
	ReadBandwidth:  1e9,
	WriteBandwidth: 1e9,
	Channels:       2,
}

func TestProfileValidate(t *testing.T) {
	if err := testProfile.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Profile{ProfileIoDrive2, ProfileSSD320} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := testProfile
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels validated")
	}
	bad = testProfile
	bad.ReadLatency = 0
	if bad.Validate() == nil {
		t.Error("zero latency validated")
	}
	bad = testProfile
	bad.ReadBandwidth = -1
	if bad.Validate() == nil {
		t.Error("negative bandwidth validated")
	}
}

func TestServiceTimes(t *testing.T) {
	// 4096 bytes at 1 byte/ns = 4096 ns transfer + 10 us latency.
	want := 10*vtime.Microsecond + 4096
	if got := testProfile.ReadServiceTime(4096); got != want {
		t.Fatalf("ReadServiceTime(4096) = %v, want %v", got, want)
	}
	wantW := 20*vtime.Microsecond + 4096
	if got := testProfile.WriteServiceTime(4096); got != wantW {
		t.Fatalf("WriteServiceTime(4096) = %v, want %v", got, wantW)
	}
}

func TestProfileOrdering(t *testing.T) {
	// The PCIe card must beat the SATA drive on every axis the paper
	// cares about.
	if ProfileIoDrive2.PeakReadIOPS() <= ProfileSSD320.PeakReadIOPS() {
		t.Error("ioDrive2 IOPS should exceed SSD320")
	}
	if ProfileIoDrive2.ReadBandwidth <= ProfileSSD320.ReadBandwidth {
		t.Error("ioDrive2 bandwidth should exceed SSD320")
	}
}

func TestWithLatencyScale(t *testing.T) {
	p := testProfile.WithLatencyScale(0.5)
	if p.ReadLatency != 5*vtime.Microsecond || p.WriteLatency != 10*vtime.Microsecond {
		t.Fatalf("scaled latencies: %v / %v", p.ReadLatency, p.WriteLatency)
	}
	if p.ReadBandwidth != testProfile.ReadBandwidth {
		t.Fatal("bandwidth must not scale")
	}
	// Identity and degenerate scales.
	if q := testProfile.WithLatencyScale(1); q != testProfile {
		t.Fatal("scale 1 changed the profile")
	}
	if q := testProfile.WithLatencyScale(0); q != testProfile {
		t.Fatal("scale 0 changed the profile")
	}
	if q := testProfile.WithLatencyScale(1e-12); q.ReadLatency < 1 {
		t.Fatal("latency scaled below 1 ns")
	}
}

func TestScaleEquivalenceFactor(t *testing.T) {
	cases := []struct {
		scale, paper int
		want         float64
	}{
		{27, 27, 1}, {26, 27, 0.5}, {20, 27, 1.0 / 128}, {28, 27, 2},
	}
	for _, c := range cases {
		if got := ScaleEquivalenceFactor(c.scale, c.paper); got != c.want {
			t.Errorf("ScaleEquivalenceFactor(%d,%d) = %v, want %v",
				c.scale, c.paper, got, c.want)
		}
	}
}

func TestDeviceSingleRequest(t *testing.T) {
	d := NewDevice(testProfile, 0)
	done := d.Read(0, 512)
	want := 10*vtime.Microsecond + 512
	if done != want {
		t.Fatalf("completion %v, want %v", done, want)
	}
	s := d.Snapshot()
	if s.Reads != 1 || s.ReadBytes != 512 {
		t.Fatalf("stats: %+v", s)
	}
	if s.AvgWait != 0 {
		t.Fatalf("lone request waited %v", s.AvgWait)
	}
	if s.AvgRequestSectors != 1 {
		t.Fatalf("avgrq-sz = %v sectors", s.AvgRequestSectors)
	}
}

func TestDeviceSectorRounding(t *testing.T) {
	d := NewDevice(testProfile, 0)
	d.Read(0, 16) // 16 bytes -> one 512-byte sector
	s := d.Snapshot()
	if s.ReadBytes != 512 {
		t.Fatalf("ReadBytes = %d, want 512", s.ReadBytes)
	}
	d.Reset()
	d.Read(0, 513) // -> two sectors
	if s := d.Snapshot(); s.ReadBytes != 1024 {
		t.Fatalf("ReadBytes = %d, want 1024", s.ReadBytes)
	}
}

func TestDeviceQueueing(t *testing.T) {
	// Three simultaneous requests on a 2-channel device: the third must
	// wait for a channel.
	d := NewDevice(testProfile, 0)
	service := testProfile.ReadServiceTime(512)
	c1 := d.Read(0, 512)
	c2 := d.Read(0, 512)
	c3 := d.Read(0, 512)
	if c1 != service || c2 != service {
		t.Fatalf("first two requests: %v, %v, want %v", c1, c2, service)
	}
	if c3 != 2*service {
		t.Fatalf("queued request completed at %v, want %v", c3, 2*service)
	}
	s := d.Snapshot()
	if s.AvgWait != service/3 {
		t.Fatalf("AvgWait = %v, want %v", s.AvgWait, service/3)
	}
}

func TestDeviceParallelChannels(t *testing.T) {
	// Requests arriving at distinct times on free channels never wait.
	d := NewDevice(testProfile, 0)
	service := testProfile.ReadServiceTime(512)
	for i := 0; i < 10; i++ {
		at := vtime.Duration(i) * 2 * service
		if done := d.Read(at, 512); done != at+service {
			t.Fatalf("request %d: completion %v, want %v", i, done, at+service)
		}
	}
}

func TestDeviceLittlesLaw(t *testing.T) {
	// Saturate a 2-channel device with back-to-back requests from time
	// 0; the time-averaged in-flight count must approach the channel
	// count (Little's law: L = lambda * W).
	d := NewDevice(testProfile, 0)
	const n = 1000
	for i := 0; i < n; i++ {
		d.Read(0, 512)
	}
	s := d.Snapshot()
	// All requests arrive at 0, so in-flight decays linearly from n;
	// avgqu-sz = sum of response times / span ~= n/2.
	if math.Abs(s.AvgQueueSize-float64(n)/2) > float64(n)/20 {
		t.Fatalf("AvgQueueSize = %v, want ~%v", s.AvgQueueSize, n/2)
	}
	if s.Utilization < 0.99 || s.Utilization > 1.01 {
		t.Fatalf("Utilization = %v, want ~1", s.Utilization)
	}
}

func TestDeviceReset(t *testing.T) {
	d := NewDevice(testProfile, 0)
	d.Read(0, 512)
	d.Write(0, 512)
	d.Reset()
	s := d.Snapshot()
	if s.Reads != 0 || s.Writes != 0 || s.ReadBytes != 0 {
		t.Fatalf("stats after reset: %+v", s)
	}
	// Channels must be free again.
	if done := d.Read(0, 512); done != testProfile.ReadServiceTime(512) {
		t.Fatalf("channel not freed by reset: %v", done)
	}
}

// TestDeviceOpenEpoch is the epoch rule: a run starting at s opens an epoch
// only when another timeline submitted since the engine's previous run ended
// and some request arrived at or after s.
func TestDeviceOpenEpoch(t *testing.T) {
	const ms = vtime.Millisecond
	for _, tc := range []struct {
		name string
		// setup submits the device's history and returns the engine's count
		// at the end of its previous run (0: never ran) and its start time.
		setup func(d *Device) (seen int64, start vtime.Duration)
		epoch bool
	}{
		{"foreign traffic ahead of start opens an epoch", func(d *Device) (int64, vtime.Duration) {
			d.Read(0, 4096) // the engine's previous run
			seen := d.Requests()
			d.Write(5*ms, 4096) // another timeline, ahead of the engine
			return seen, 1 * ms
		}, true},
		{"foreign traffic before start accumulates", func(d *Device) (int64, vtime.Duration) {
			d.Write(0, 4096)
			d.Write(0, 4096)
			return 0, 1 * ms
		}, false},
		{"continuing timeline keeps its own late requests", func(d *Device) (int64, vtime.Duration) {
			d.Read(0, 4096)
			d.Write(5*ms, 4096) // the run's own background write, past its barrier
			return d.Requests(), 1 * ms
		}, false},
		{"fresh device", func(d *Device) (int64, vtime.Duration) { return 0, 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice(testProfile, 0)
			seen, start := tc.setup(d)
			before, free := d.Snapshot(), d.EarliestFree()
			d.OpenEpoch(start, seen)
			after := d.Snapshot()
			if tc.epoch {
				if after != (Stats{}) || d.EarliestFree() != 0 {
					t.Fatalf("no epoch opened: %+v, earliest free %v", after, d.EarliestFree())
				}
			} else if after != before || d.EarliestFree() != free {
				t.Fatalf("device changed: %+v -> %+v, earliest free %v -> %v", before, after, free, d.EarliestFree())
			}
			if d.Requests() != before.Reads+before.Writes {
				t.Fatalf("lifetime count %d, want %d", d.Requests(), before.Reads+before.Writes)
			}
		})
	}
}

func TestDeviceWriteStats(t *testing.T) {
	d := NewDevice(testProfile, 0)
	d.Write(0, 1024)
	s := d.Snapshot()
	if s.Writes != 1 || s.WriteBytes != 1024 || s.Reads != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDeviceSeries(t *testing.T) {
	d := NewDevice(testProfile, vtime.Millisecond)
	d.Read(0, 4096)
	d.Read(500*vtime.Microsecond, 4096)
	d.Read(2500*vtime.Microsecond, 4096)
	pts := d.Series()
	if len(pts) != 2 {
		t.Fatalf("series has %d bins, want 2: %+v", len(pts), pts)
	}
	if pts[0].Start != 0 || pts[0].Requests != 2 {
		t.Fatalf("bin 0: %+v", pts[0])
	}
	if pts[1].Start != 2*vtime.Millisecond || pts[1].Requests != 1 {
		t.Fatalf("bin 1: %+v", pts[1])
	}
	if pts[0].AvgRequestSectors != 8 {
		t.Fatalf("bin 0 avgrq-sz = %v, want 8", pts[0].AvgRequestSectors)
	}
	d.Reset()
	if len(d.Series()) != 0 {
		t.Fatal("series not cleared by reset")
	}
}

func TestDeviceSeriesDisabled(t *testing.T) {
	d := NewDevice(testProfile, 0)
	d.Read(0, 512)
	if d.Series() != nil {
		t.Fatal("series recorded with binWidth 0")
	}
}

func TestEmptySnapshot(t *testing.T) {
	d := NewDevice(testProfile, 0)
	s := d.Snapshot()
	if s.Reads != 0 || s.AvgQueueSize != 0 || s.AvgRequestSectors != 0 {
		t.Fatalf("fresh device stats: %+v", s)
	}
}

// TestDeviceDecodeTime: a device decodes at its profile's bandwidth, and a
// store with no device model (a nil *Device) at the default one.
func TestDeviceDecodeTime(t *testing.T) {
	p := ProfileIoDrive2
	p.DecodeBandwidth = 1e9
	if got, want := NewDevice(p, 0).DecodeTime(4096), vtime.Duration(4096); got != want {
		t.Errorf("at 1 GB/s, 4096 bytes decode in %v, want %v", got, want)
	}
	var none *Device
	if got, want := none.DecodeTime(4096), (Profile{}).DecodeTime(4096); got != want || want == 0 {
		t.Errorf("a nil device decodes 4096 bytes in %v, want the default %v", got, want)
	}
}

func BenchmarkDeviceRead(b *testing.B) {
	d := NewDevice(ProfileIoDrive2, 0)
	at := vtime.Duration(0)
	for i := 0; i < b.N; i++ {
		at = d.Read(at, 4096)
	}
}

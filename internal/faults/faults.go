// Package faults injects deterministic, seeded device faults into the NVM
// storage layer so the resilience of the semi-external BFS can be tested
// and measured without real failing hardware.
//
// A faults.Store wraps any nvm.Storage and perturbs its reads:
//
//   - transient errors at a configurable rate (wrapping nvm.ErrTransient,
//     so the retry layer knows a reissue may succeed);
//   - permanent device death after a fixed number of reads or at a fixed
//     virtual time (wrapping nvm.ErrDeviceDead — not retryable);
//   - latency spikes that multiply the request's modeled service time;
//   - bit-flip corruption of returned chunks (detected only when the
//     store is also wrapped with nvm.WrapChecksum — otherwise the BFS
//     silently traverses garbage, which is exactly the failure mode the
//     checksums exist to prevent).
//
// Every decision is a pure function of (seed, store name, offset, attempt
// number at that offset), drawn through the rng package's SplitMix64
// finalizer. Two consequences: a given read fails identically no matter
// which simulated worker issues it, and a *retry* of the same offset draws
// fresh randomness (its attempt number advanced), so transient faults are
// recoverable. This is what makes whole fault scenarios reproducible from
// a single seed.
//
// A Store, like every layer of a storage stack, is used by one goroutine
// at a time, and so are a Factory and the stores it built.
package faults

import (
	"fmt"
	"strings"

	"semibfs/internal/nvm"
	"semibfs/internal/rng"
	"semibfs/internal/vtime"
)

// Config parameterizes one store's fault injection. The zero value injects
// nothing.
type Config struct {
	// Seed drives every fault decision; the same seed reproduces the
	// same fault schedule bit-for-bit.
	Seed uint64
	// TransientRate is the probability that a read fails with a
	// retryable transient error.
	TransientRate float64
	// DieAfterReads kills the device permanently after this many reads
	// across all workers (0 = never).
	DieAfterReads int64
	// DieAtTime kills the device permanently at this virtual time:
	// any read submitted at or after it fails (0 = never).
	DieAtTime vtime.Duration
	// DieReplica restricts DieAfterReads/DieAtTime to the stores of one
	// mirror replica: 1 kills replica 0 ("...-r0"), 2 kills replica 1, and
	// so on. 0 applies death to every store (the pre-mirror behavior), so
	// with replication it models correlated loss of the whole array.
	DieReplica int
	// SpikeRate is the probability that a read's modeled service time is
	// multiplied by SpikeMultiplier (a latency spike, not an error).
	SpikeRate float64
	// SpikeMultiplier scales a spiking read's service time (values <= 1
	// disable spikes).
	SpikeMultiplier float64
	// CorruptRate is the probability that a read succeeds but returns a
	// buffer with one flipped bit.
	CorruptRate float64
	// CutAtWrite simulates a host power cut on the Nth write (1-based,
	// counted per store) to a store whose name contains CutStores. The
	// cut is host-wide: once any store of a factory trips it, every store
	// built by that factory fails all further reads and writes with a
	// *PowerCutError (wrapping nvm.ErrPowerCut, never retryable) until
	// the stack is rebuilt over the surviving media. 0 = never.
	CutAtWrite int64
	// TornWrite makes the cut write persist a deterministic prefix
	// (strictly shorter than the request) before power is lost, modeling
	// a torn sector write; false loses the cut write entirely.
	TornWrite bool
	// CutStores restricts which stores count writes toward CutAtWrite
	// (substring match on the store name; "" counts every store).
	CutStores string
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.TransientRate > 0 || c.DieAfterReads > 0 || c.DieAtTime > 0 ||
		(c.SpikeRate > 0 && c.SpikeMultiplier > 1) || c.CorruptRate > 0 ||
		c.CutAtWrite > 0
}

// String renders the active fault parameters (used in cache keys and
// reports).
func (c Config) String() string {
	return fmt.Sprintf("seed=%d rate=%g after=%d at=%v rep=%d spike=%gx@%g corrupt=%g cut=%d@%q torn=%v",
		c.Seed, c.TransientRate, c.DieAfterReads, c.DieAtTime, c.DieReplica,
		c.SpikeMultiplier, c.SpikeRate, c.CorruptRate,
		c.CutAtWrite, c.CutStores, c.TornWrite)
}

// Counters is a snapshot of one store's injected-fault totals.
type Counters struct {
	Reads     int64
	Writes    int64
	Transient int64
	Spikes    int64
	Corrupted int64
	Torn      int64
	Dead      bool
	Cut       bool
}

// Store is a fault-injecting nvm.Storage wrapper.
type Store struct {
	inner nvm.Storage
	name  string
	cfg   Config
	salt  uint64
	// canDie reports whether this store is covered by the config's death
	// clauses (false when DieReplica selects a different replica).
	canDie bool
	// canCut reports whether this store's writes count toward CutAtWrite.
	canCut bool
	// cut is the host power state, shared by every store a Factory built:
	// one store tripping the cut takes the whole host down.
	cut *bool

	reads     int64
	writes    int64
	transient int64
	spikes    int64
	corrupted int64
	torn      int64
	dead      bool

	attempts map[int64]uint64 // per-offset read attempt counts
}

// Wrap returns inner with cfg's faults injected. name identifies the store
// in errors and salts its fault stream, so distinct stores built from the
// same seed fail independently but reproducibly.
func Wrap(inner nvm.Storage, name string, cfg Config) *Store {
	return wrapShared(inner, name, cfg, new(bool))
}

// wrapShared is Wrap with an explicit host power-state flag, so a
// Factory's stores go down together when one of them trips the cut.
func wrapShared(inner nvm.Storage, name string, cfg Config, cut *bool) *Store {
	return &Store{
		inner:  inner,
		name:   name,
		cfg:    cfg,
		salt:   rng.Mix64(hashName(name)),
		canDie: cfg.DieReplica == 0 || nvm.ReplicaIndex(name)+1 == cfg.DieReplica,
		canCut: cfg.CutAtWrite > 0 &&
			(cfg.CutStores == "" || strings.Contains(name, cfg.CutStores)),
		cut:      cut,
		attempts: make(map[int64]uint64),
	}
}

// hashName folds a store name into a 64-bit salt (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Name returns the wrapped store's name.
func (s *Store) Name() string { return s.name }

// Device returns the inner store's device model.
func (s *Store) Device() *nvm.Device { return s.inner.Device() }

// Size returns the inner store's size.
func (s *Store) Size() int64 { return s.inner.Size() }

// Close closes the inner store.
func (s *Store) Close() error { return s.inner.Close() }

// Kind implements nvm.Layer.
func (s *Store) Kind() string { return "faults" }

// Unwrap implements nvm.Layer.
func (s *Store) Unwrap() nvm.Storage { return s.inner }

// AppendCounters implements nvm.Layer.
func (s *Store) AppendCounters(dst []nvm.Counter) []nvm.Counter {
	var dead int64
	if s.dead {
		dead = 1
	}
	var cut int64
	if *s.cut {
		cut = 1
	}
	return append(dst,
		nvm.Counter{Name: "reads", Value: s.reads},
		nvm.Counter{Name: "writes", Value: s.writes},
		nvm.Counter{Name: "transient_injected", Value: s.transient},
		nvm.Counter{Name: "spikes_injected", Value: s.spikes},
		nvm.Counter{Name: "corruptions_injected", Value: s.corrupted},
		nvm.Counter{Name: "torn_writes", Value: s.torn},
		nvm.Counter{Name: "dead", Value: dead},
		nvm.Counter{Name: "power_cut", Value: cut},
	)
}

// Counters returns the store's injected-fault totals so far.
func (s *Store) Counters() Counters {
	return Counters{
		Reads:     s.reads,
		Writes:    s.writes,
		Transient: s.transient,
		Spikes:    s.spikes,
		Corrupted: s.corrupted,
		Torn:      s.torn,
		Dead:      s.dead,
		Cut:       *s.cut,
	}
}

// Revive clears the dead flag and read count (tests use it to model a
// replaced device).
func (s *Store) Revive() { s.dead, s.reads = false, 0 }

// TransientError is the structured retryable error an injected fault
// produces. It wraps nvm.ErrTransient.
type TransientError struct {
	Store string
	Off   int64
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: store %s read @%d: %v", e.Store, e.Off, nvm.ErrTransient)
}

func (e *TransientError) Unwrap() error { return nvm.ErrTransient }

// PowerCutError is the structured error every operation returns once the
// simulated host has lost power. It wraps nvm.ErrPowerCut.
type PowerCutError struct {
	Store string
	Off   int64
	At    vtime.Duration
}

func (e *PowerCutError) Error() string {
	return fmt.Sprintf("faults: store %s @%d at %v: %v", e.Store, e.Off, e.At.ToTime(), nvm.ErrPowerCut)
}

func (e *PowerCutError) Unwrap() error { return nvm.ErrPowerCut }

func (s *Store) powerCutError(clock *vtime.Clock, off int64) error {
	var at vtime.Duration
	if clock != nil {
		at = clock.Now()
	}
	return &PowerCutError{Store: s.name, Off: off, At: at}
}

// WriteAt implements nvm.Storage. Writes pass through unperturbed by the
// read-fault model, but count toward CutAtWrite: on the cut write the
// host loses power — at most a deterministic prefix of the request
// persists (TornWrite), the error wraps nvm.ErrPowerCut, and every later
// operation on this host fails the same way until recovery rebuilds the
// stack over the surviving media.
func (s *Store) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if *s.cut {
		return s.powerCutError(clock, off)
	}
	if s.canCut {
		if s.writes++; s.writes == s.cfg.CutAtWrite {
			*s.cut = true
			if s.cfg.TornWrite && len(p) > 1 {
				// The prefix length is a pure function of (seed, store,
				// offset), so the torn frame is reproducible.
				g := rng.NewSplitMix64(s.cfg.Seed ^ s.salt ^ rng.Mix64(uint64(off)) ^ 0x746f726e)
				if n := int(g.Next() % uint64(len(p))); n > 0 {
					s.torn++
					// The prefix reached the media before the cut; its
					// error (if any) is irrelevant — the host is gone.
					_ = s.inner.WriteAt(clock, p[:n], off)
				}
			}
			return s.powerCutError(clock, off)
		}
	}
	return s.inner.WriteAt(clock, p, off)
}

// ReadAt implements nvm.Storage with fault injection. Failed reads still
// charge the device model for the transfer (a failed request occupies the
// device just like a successful one) and are counted in its health stats.
func (s *Store) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	if *s.cut {
		return s.powerCutError(clock, off)
	}
	s.reads++

	// Permanent death: sticky, and decided before any service.
	if s.canDie {
		if s.cfg.DieAfterReads > 0 && s.reads > s.cfg.DieAfterReads {
			s.dead = true
		}
		if s.cfg.DieAtTime > 0 && clock != nil && clock.Now() >= s.cfg.DieAtTime {
			s.dead = true
		}
	}
	if s.dead {
		var at vtime.Duration
		if clock != nil {
			at = clock.Now()
		}
		if dev := s.inner.Device(); dev != nil {
			dev.NoteError()
			dev.MarkDead()
		}
		return &nvm.DeadError{Store: s.name, Reads: s.reads - 1, At: at}
	}

	// Draw this attempt's fault decisions: a pure function of
	// (seed, store, offset, attempt).
	s.attempts[off]++
	g := rng.NewSplitMix64(s.cfg.Seed ^ s.salt ^ rng.Mix64(uint64(off)) ^ rng.Mix64(s.attempts[off]))

	if s.cfg.TransientRate > 0 && unit(g.Next()) < s.cfg.TransientRate {
		s.transient++
		if dev := s.inner.Device(); dev != nil {
			dev.NoteError()
			// The failed transfer still occupies the device.
			if clock != nil {
				clock.AdvanceTo(dev.Read(clock.Now(), len(p)))
			}
		}
		return &TransientError{Store: s.name, Off: off}
	}

	spike := s.cfg.SpikeRate > 0 && s.cfg.SpikeMultiplier > 1 &&
		unit(g.Next()) < s.cfg.SpikeRate
	corrupt := s.cfg.CorruptRate > 0 && unit(g.Next()) < s.cfg.CorruptRate
	bitPos := g.Next()

	if err := s.inner.ReadAt(clock, p, off); err != nil {
		return err
	}
	if spike {
		s.spikes++
		if dev := s.inner.Device(); dev != nil && clock != nil {
			extra := vtime.Duration(float64(dev.Profile().ReadServiceTime(len(p))) *
				(s.cfg.SpikeMultiplier - 1))
			clock.Advance(extra)
		}
	}
	if corrupt && len(p) > 0 {
		s.corrupted++
		bit := bitPos % uint64(len(p)*8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return nil
}

// unit maps a 64-bit draw to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Factory wraps an nvm store factory (the semiext.StoreFactory shape) so
// every store it creates carries cfg's faults, each salted by its name.
// It records the created stores for later inspection.
type Factory struct {
	mk  func(name string, chunk int) (nvm.Storage, error)
	cfg Config
	cut *bool // host power state shared by every created store

	stores []*Store
}

// NewFactory returns a factory injecting cfg into every store mk creates.
// All created stores share one host power state: a power cut tripped by
// any of them fails every store the factory built.
func NewFactory(mk func(name string, chunk int) (nvm.Storage, error), cfg Config) *Factory {
	return &Factory{mk: mk, cfg: cfg, cut: new(bool)}
}

// Make creates a store named name and wraps it with fault injection.
func (f *Factory) Make(name string, chunk int) (nvm.Storage, error) {
	inner, err := f.mk(name, chunk)
	if err != nil {
		return nil, err
	}
	st := wrapShared(inner, name, f.cfg, f.cut)
	f.stores = append(f.stores, st)
	return st, nil
}

// Cut reports whether the factory's host has lost power.
func (f *Factory) Cut() bool { return *f.cut }

// Stores returns every store the factory has created.
func (f *Factory) Stores() []*Store { return append([]*Store(nil), f.stores...) }

// TotalCounters sums the counters of every created store.
func (f *Factory) TotalCounters() Counters {
	var t Counters
	for _, st := range f.Stores() {
		c := st.Counters()
		t.Reads += c.Reads
		t.Writes += c.Writes
		t.Transient += c.Transient
		t.Spikes += c.Spikes
		t.Corrupted += c.Corrupted
		t.Torn += c.Torn
		t.Dead = t.Dead || c.Dead
		t.Cut = t.Cut || c.Cut
	}
	return t
}

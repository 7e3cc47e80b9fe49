package nvm

import (
	"errors"
	"fmt"

	"semibfs/internal/vtime"
)

// RetryPolicy bounds the retries the retry layer applies to failed NVM
// reads. Backoff is exponential (doubling from BaseBackoff, capped at
// MaxBackoff) and is charged to the worker's *virtual* clock, so retry
// storms show up in the run's reported time exactly like device stalls do.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1 disables retries).
	MaxAttempts int
	// BaseBackoff is the virtual sleep before the first retry.
	BaseBackoff vtime.Duration
	// MaxBackoff caps the exponential backoff (0 = uncapped).
	MaxBackoff vtime.Duration
}

// DefaultRetryPolicy mirrors the commodity-flash guidance of the
// semi-external systems in PAPERS.md: a handful of quick retries absorbs
// transient media errors without letting a dead device stall traversal.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 50 * vtime.Microsecond,
	MaxBackoff:  5 * vtime.Millisecond,
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// RetryExhaustedError reports a read that kept failing after the policy's
// final attempt. It wraps the last failure, so errors.Is sees through to
// the root cause (e.g. nvm.ErrTransient or nvm.ErrCorrupt).
type RetryExhaustedError struct {
	Attempts int
	Off      int64
	Err      error
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("nvm: read @%d failed after %d attempts: %v",
		e.Off, e.Attempts, e.Err)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// RetryStore is the retry/backoff middleware: the outermost data-path
// layer under metrics, so a retry re-drives every layer underneath it —
// the cache refuses to cache failed fills, the mirror re-selects a
// replica, the checksum layer re-reads the media. Reads that still fail
// after the final attempt (or hit a permanently dead device) surface as a
// *BlockError wrapping the structured cause, so callers can errors.As the
// failing block out of any stack shape.
type RetryStore struct {
	inner  Storage
	name   string
	block  int64
	policy RetryPolicy

	retries   int64
	errors    int64
	backoffNs int64
	exhausted int64
}

// WrapRetry layers policy over inner. name is carried into BlockErrors;
// block is the block granularity failures are reported at (<= 0 selects
// DefaultChunkSize).
func WrapRetry(inner Storage, name string, block int, policy RetryPolicy) *RetryStore {
	if block <= 0 {
		block = DefaultChunkSize
	}
	return &RetryStore{inner: inner, name: name, block: int64(block), policy: policy}
}

// Name returns the store name carried into errors.
func (r *RetryStore) Name() string { return r.name }

// Policy returns the retry policy in force.
func (r *RetryStore) Policy() RetryPolicy { return r.policy }

// Device returns the inner store's device model.
func (r *RetryStore) Device() *Device { return r.inner.Device() }

// Size returns the inner store's size.
func (r *RetryStore) Size() int64 { return r.inner.Size() }

// Close closes the inner store.
func (r *RetryStore) Close() error { return r.inner.Close() }

// Kind implements Layer.
func (r *RetryStore) Kind() string { return "retry" }

// Unwrap implements Layer.
func (r *RetryStore) Unwrap() Storage { return r.inner }

// AppendCounters implements Layer.
func (r *RetryStore) AppendCounters(dst []Counter) []Counter {
	return append(dst,
		Counter{Name: "retries", Value: r.retries},
		Counter{Name: "read_errors", Value: r.errors},
		Counter{Name: "backoff_ns", Value: r.backoffNs},
		Counter{Name: "exhausted", Value: r.exhausted},
		Counter{Name: "max_attempts", Value: int64(r.policy.attempts()), Gauge: true},
	)
}

// fail wraps the terminal error of a read so every caller sees the failing
// store and block through a uniform *BlockError.
func (r *RetryStore) fail(off int64, err error) error {
	return &BlockError{Store: r.name, Block: off / r.block, Off: off, Err: err}
}

// ReadAt implements Storage: transient failures are retried with
// exponential virtual-time backoff, permanent device death is returned
// immediately, and exhaustion wraps the last failure in a
// *RetryExhaustedError. Backoff is charged to the worker's clock and
// recorded in the device's health counters.
func (r *RetryStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	attempts := r.policy.attempts()
	backoff := r.policy.BaseBackoff
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.retries++
			if backoff > 0 {
				if clock != nil {
					clock.Advance(backoff)
				}
				r.backoffNs += int64(backoff)
			}
			if dev := r.inner.Device(); dev != nil {
				dev.NoteRetry(backoff)
			}
			backoff *= 2
			if r.policy.MaxBackoff > 0 && backoff > r.policy.MaxBackoff {
				backoff = r.policy.MaxBackoff
			}
		}
		err = r.inner.ReadAt(clock, p, off)
		if err == nil {
			return nil
		}
		r.errors++
		if errors.Is(err, ErrDeviceDead) {
			return r.fail(off, err)
		}
	}
	r.exhausted++
	return r.fail(off, &RetryExhaustedError{Attempts: attempts, Off: off, Err: err})
}

// WriteAt implements Storage: writes pass straight through (offload
// writes happen once, before traversal; a failed write is surfaced as a
// *BlockError without retrying).
func (r *RetryStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	if err := r.inner.WriteAt(clock, p, off); err != nil {
		return r.fail(off, err)
	}
	return nil
}

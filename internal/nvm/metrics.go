package nvm

import "semibfs/internal/vtime"

// MetricsStore is the outermost stack layer: a pure observer counting the
// requests and bytes that enter the stack and the errors that escape it.
// It adds no virtual time and never retries, caches, or transforms — it
// exists so every stack reports logical traffic in one place regardless
// of which resilience layers a scenario enabled.
type MetricsStore struct {
	inner Storage
	name  string

	reads       int64
	writes      int64
	readBytes   int64
	writeBytes  int64
	readErrors  int64
	writeErrors int64
}

// WrapMetrics layers request/byte/error counting over inner.
func WrapMetrics(inner Storage, name string) *MetricsStore {
	return &MetricsStore{inner: inner, name: name}
}

// Name returns the store name the metrics are reported under.
func (m *MetricsStore) Name() string { return m.name }

// Device returns the inner store's device model.
func (m *MetricsStore) Device() *Device { return m.inner.Device() }

// Size returns the inner store's size.
func (m *MetricsStore) Size() int64 { return m.inner.Size() }

// Close closes the inner store.
func (m *MetricsStore) Close() error { return m.inner.Close() }

// Kind implements Layer.
func (m *MetricsStore) Kind() string { return "metrics" }

// Unwrap implements Layer.
func (m *MetricsStore) Unwrap() Storage { return m.inner }

// AppendCounters implements Layer.
func (m *MetricsStore) AppendCounters(dst []Counter) []Counter {
	return append(dst,
		Counter{Name: "reads", Value: m.reads},
		Counter{Name: "writes", Value: m.writes},
		Counter{Name: "read_bytes", Value: m.readBytes},
		Counter{Name: "write_bytes", Value: m.writeBytes},
		Counter{Name: "read_errors", Value: m.readErrors},
		Counter{Name: "write_errors", Value: m.writeErrors},
	)
}

// ReadAt implements Storage.
func (m *MetricsStore) ReadAt(clock *vtime.Clock, p []byte, off int64) error {
	m.reads++
	if err := m.inner.ReadAt(clock, p, off); err != nil {
		m.readErrors++
		return err
	}
	m.readBytes += int64(len(p))
	return nil
}

// WriteAt implements Storage.
func (m *MetricsStore) WriteAt(clock *vtime.Clock, p []byte, off int64) error {
	m.writes++
	if err := m.inner.WriteAt(clock, p, off); err != nil {
		m.writeErrors++
		return err
	}
	m.writeBytes += int64(len(p))
	return nil
}

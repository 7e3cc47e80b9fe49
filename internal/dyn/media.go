package dyn

import (
	"semibfs/internal/nvm"
	"semibfs/internal/semiext"
)

// Media is a reopenable in-DRAM NVM media pool: the same store name
// always resolves to the same MemStore, so a storage stack can be torn
// down (crash, power cut) and rebuilt over the surviving bytes — the
// role a filesystem plays for real devices. MemStore.Close is a no-op,
// which is what makes reopening safe.
//
// Fault injection composes on top: wrap Factory with a faults.Factory
// per "boot" so a power cut freezes the media exactly as it was, and the
// next boot wraps the same media with a fresh (uncut) fault layer.
type Media struct {
	dev    func(name string) *nvm.Device
	stores map[string]*nvm.MemStore
}

// NewMedia returns a pool whose stores all share dev (nil for an
// uncosted device).
func NewMedia(dev *nvm.Device) *Media {
	return NewMediaFunc(func(string) *nvm.Device { return dev })
}

// NewMediaFunc returns a pool that asks dev for each new store's device,
// letting callers give replicas independent devices (and independent
// failure domains).
func NewMediaFunc(dev func(name string) *nvm.Device) *Media {
	return &Media{dev: dev, stores: make(map[string]*nvm.MemStore)}
}

// Factory resolves names against the pool, creating stores on first use.
func (m *Media) Factory() semiext.StoreFactory {
	return func(name string, chunk int) (nvm.Storage, error) {
		if st, ok := m.stores[name]; ok {
			return st, nil
		}
		st := nvm.NewNamedMemStore(name, m.dev(name), chunk)
		m.stores[name] = st
		return st, nil
	}
}

// Drop removes the named store from the pool, simulating media loss of
// one replica (the next open starts from empty bytes).
func (m *Media) Drop(name string) {
	delete(m.stores, name)
}

// Names returns the names of every store the pool holds.
func (m *Media) Names() []string {
	out := make([]string, 0, len(m.stores))
	for name := range m.stores {
		out = append(out, name)
	}
	return out
}

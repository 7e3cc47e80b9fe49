//go:build race

package csr

// raceEnabled reports whether the race detector is compiled in; it adds its
// own allocations, so the allocation guard skips under it.
const raceEnabled = true

//go:build race

package dyn_test

// raceEnabled reports whether the race detector is compiled in; it adds its
// own allocations, so the allocation guard skips under it.
const raceEnabled = true

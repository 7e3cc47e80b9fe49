//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in; it adds its
// own allocations, so the allocation guards skip under it.
const raceEnabled = true

//go:build race

package semiext

// raceEnabled reports whether the race detector is compiled in; it adds its
// own allocations, so the allocation guards skip under it.
const raceEnabled = true

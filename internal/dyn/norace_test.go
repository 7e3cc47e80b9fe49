//go:build !race

package dyn_test

const raceEnabled = false

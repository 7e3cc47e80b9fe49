//go:build !race

package vp_test

const raceEnabled = false

//go:build !race

package semiext

const raceEnabled = false

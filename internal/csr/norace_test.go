//go:build !race

package csr

const raceEnabled = false

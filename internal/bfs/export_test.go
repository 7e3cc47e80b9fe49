package bfs

import "semibfs/internal/semiext"

// TailFetches returns how many vertex tails scanner s has streamed in.
func TailFetches(s BackwardScan) int64 { return s.(*semiext.BackwardScanner).TailFetches }

// StepPinSession is stepPinSession for the package's external tests.
var StepPinSession = stepPinSession

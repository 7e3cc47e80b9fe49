package bfs

// TailFetches returns how many vertex tails scanner s has streamed in.
func TailFetches(s BackwardScan) int64 { return s.(*hybridBackwardScan).TailFetches }

// StepPinSession is stepPinSession for the package's external tests.
var StepPinSession = stepPinSession

package vp

// PullPrefix and PullBatch expose the pull kernel's prefix widening to the
// external tests.
var PullPrefix = pullPrefix

const PullBatch = pullBatch

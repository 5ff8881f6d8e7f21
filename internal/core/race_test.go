//go:build race

package core

// raceDetector reports whether the tests run under the race detector, whose
// runtime allocates beside the code under test and has sync.Pool drop one
// Put in four.
const raceDetector = true

//go:build race

package core

// raceDetector reports whether the tests run under the race detector, whose
// runtime allocates beside the code under test.
const raceDetector = true

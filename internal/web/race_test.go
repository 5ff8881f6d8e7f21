//go:build race

package web

// raceDetector reports whether the tests run under the race detector, whose
// runtime allocates beside the code under test.
const raceDetector = true

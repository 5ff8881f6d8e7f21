//go:build !race

package web

const raceDetector = false

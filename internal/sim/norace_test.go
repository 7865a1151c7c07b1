//go:build !race

package sim

const raceDetector = false

//go:build !race

package ansor

const raceDetector = false

//go:build race

package feat

const raceDetector = true

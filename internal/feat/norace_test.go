//go:build !race

package feat

const raceDetector = false

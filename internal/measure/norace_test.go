//go:build !race

package measure

const raceDetector = false

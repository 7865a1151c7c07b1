//go:build race

package measure

const raceDetector = true

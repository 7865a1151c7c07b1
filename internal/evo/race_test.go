//go:build race

package evo

const raceDetector = true

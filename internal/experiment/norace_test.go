//go:build !race

package experiment

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false

//go:build !race

package segstore

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

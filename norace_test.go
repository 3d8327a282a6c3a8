//go:build !race

package aecodes

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

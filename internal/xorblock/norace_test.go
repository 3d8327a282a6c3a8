//go:build !race

package xorblock

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

//go:build !race

package transport

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

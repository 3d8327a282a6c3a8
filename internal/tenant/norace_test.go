//go:build !race

package tenant

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

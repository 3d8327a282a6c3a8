//go:build race

package tenant

// raceEnabled reports a -race build. The detector instruments and
// allocates behind the code under test, so allocation counts under it
// measure the detector, not the code.
const raceEnabled = true

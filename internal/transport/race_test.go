//go:build race

package transport

// raceEnabled reports a -race build. Its sync.Pool drops a quarter of
// the buffers it is handed at random, so an allocation count over pooled
// buffers measures the detector, not the code.
const raceEnabled = true

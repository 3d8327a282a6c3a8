// Package blockstore is kept only for bench/fleetrun.go, which names its
// parity blocks with ParityKey.
package blockstore

import (
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// ParityKey forwards to store.ParityKey, the one spelling of parity block
// names.
func ParityKey(e lattice.Edge) string { return store.ParityKey(e) }

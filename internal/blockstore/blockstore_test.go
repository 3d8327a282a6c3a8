package blockstore

import (
	"testing"

	"aecodes/internal/lattice"
)

func TestKeys(t *testing.T) {
	e := lattice.Edge{Class: lattice.Horizontal, Left: 21, Right: 26}
	if got := ParityKey(e); got != "p:h:21:26" {
		t.Errorf("ParityKey = %q", got)
	}
	e2 := lattice.Edge{Class: lattice.LeftHanded, Left: 22, Right: 26}
	if got := ParityKey(e2); got != "p:lh:22:26" {
		t.Errorf("ParityKey = %q", got)
	}
}

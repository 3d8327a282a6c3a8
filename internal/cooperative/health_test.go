package cooperative

import (
	"context"
	"testing"

	"aecodes/internal/entangle"
)

func TestBrokerHealthProbe(t *testing.T) {
	nodes, mems := newNetwork(7)
	b := newBroker(t, nodes)
	backupRandom(t, b, 40, 17)

	h, err := b.Health(bg)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.Healthy() || h.Score != 0 || h.Blocks != 40 {
		t.Fatalf("fresh lattice health = %+v, want healthy with 40 blocks", h)
	}

	lost := mems[2].Len()
	mems[2].blocks.Clear()
	if lost == 0 {
		t.Skip("placement put nothing on node 2 for this seed")
	}
	h, err = b.Health(bg)
	if err != nil {
		t.Fatalf("Health after wipe: %v", err)
	}
	if h.Healthy() || h.MissingParities() != lost || h.Score <= 0 {
		t.Fatalf("post-wipe health = missing %d parities score %v, want %d missing",
			h.MissingParities(), h.Score, lost)
	}

	// The unified entry point heals it; the probe agrees.
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.ParityRepaired != lost {
		t.Fatalf("repaired %d parities, want %d", stats.ParityRepaired, lost)
	}
	h, err = b.Health(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Healthy() {
		t.Fatalf("lattice still unhealthy after repair: %+v", h)
	}
}

// chargeCounter is a Limiter that records total charged bytes.
type chargeCounter struct {
	ops   int
	bytes int64
}

func (c *chargeCounter) Acquire(ctx context.Context, ops int, bytes int64) error {
	c.ops += ops
	c.bytes += bytes
	return nil
}

func TestBrokerRepairChargesRateLimit(t *testing.T) {
	nodes, mems := newNetwork(5)
	b := newBroker(t, nodes)
	backupRandom(t, b, 30, 18)
	if mems[1].Len() == 0 {
		t.Skip("placement put nothing on node 1 for this seed")
	}
	mems[1].blocks.Clear()

	lim := &chargeCounter{}
	stats, err := b.Repair(bg, entangle.Options{RateLimit: lim, Priority: entangle.PriorityBackground})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.ParityRepaired == 0 {
		t.Fatal("nothing repaired")
	}
	if stats.BytesRead <= 0 {
		t.Fatal("repair did not meter BytesRead")
	}
	if lim.bytes < stats.BytesRead {
		t.Fatalf("limiter charged %d bytes < %d metered; commits must charge too", lim.bytes, stats.BytesRead)
	}
}

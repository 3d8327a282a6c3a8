package aecodes_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"aecodes"
	"aecodes/internal/segstore"
)

func newCode(t *testing.T, params aecodes.Params, blockSize int) *aecodes.Code {
	t.Helper()
	c, err := aecodes.New(params, blockSize)
	if err != nil {
		t.Fatalf("New(%v): %v", params, err)
	}
	return c
}

func TestPublicQuickstartFlow(t *testing.T) {
	const blockSize = 64
	code := newCode(t, aecodes.Params{Alpha: 3, S: 2, P: 5}, blockSize)
	store := aecodes.NewMemoryStore(blockSize)

	rng := rand.New(rand.NewSource(1))
	originals := make([][]byte, 101)
	for i := 1; i <= 100; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := code.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		if ent.Index != i {
			t.Fatalf("index %d, want %d", ent.Index, i)
		}
		if err := store.PutData(bg, ent.Index, data); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Single failure: one XOR.
	store.LoseData(42)
	got, err := code.RepairData(bg, store, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, originals[42]) {
		t.Error("repaired content mismatch")
	}
	if err := store.PutData(bg, 42, got); err != nil {
		t.Fatal(err)
	}

	// Correlated failure: round-based repair.
	for i := 50; i <= 60; i++ {
		store.LoseData(i)
	}
	stats, err := code.Repair(bg, store, aecodes.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 {
		t.Errorf("data loss %d, want 0", stats.DataLoss())
	}

	// Audit.
	audit, err := code.Audit(bg, store, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Error("audit of healthy block failed")
	}
}

func TestPublicAccessors(t *testing.T) {
	params := aecodes.Params{Alpha: 2, S: 2, P: 5}
	code := newCode(t, params, 32)
	if code.Params() != params {
		t.Errorf("Params = %v", code.Params())
	}
	if code.BlockSize() != 32 {
		t.Errorf("BlockSize = %d", code.BlockSize())
	}
	if code.Next() != 1 {
		t.Errorf("Next = %d", code.Next())
	}
	if code.WriteCost() != 3 {
		t.Errorf("WriteCost = %d", code.WriteCost())
	}
	if code.Lattice() == nil {
		t.Error("Lattice is nil")
	}
	if got := params.String(); got != "AE(2,2,5)" {
		t.Errorf("String = %q", got)
	}
}

func TestPublicValidation(t *testing.T) {
	if _, err := aecodes.New(aecodes.Params{Alpha: 4, S: 1, P: 1}, 16); err == nil {
		t.Error("accepted alpha=4")
	}
	if _, err := aecodes.New(aecodes.Params{Alpha: 2, S: 3, P: 2}, 16); err == nil {
		t.Error("accepted p<s")
	}
	if _, err := aecodes.New(aecodes.Params{Alpha: 2, S: 2, P: 5}, 0); err == nil {
		t.Error("accepted zero block size")
	}
}

func TestPublicErrUnrepairable(t *testing.T) {
	code := newCode(t, aecodes.Params{Alpha: 1, S: 1, P: 0}, 16)
	store := aecodes.NewMemoryStore(16)
	for i := 1; i <= 10; i++ {
		ent, err := code.Entangle(make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutData(bg, ent.Index, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Primitive form I: d5, d6 and their shared edge.
	store.LoseData(5)
	store.LoseData(6)
	store.LoseParity(aecodes.Edge{Class: aecodes.Horizontal, Left: 5, Right: 6})
	if _, err := code.RepairData(bg, store, 5); !errors.Is(err, aecodes.ErrUnrepairable) {
		t.Errorf("RepairData = %v, want ErrUnrepairable", err)
	}
}

func TestPublicPuncture(t *testing.T) {
	code := newCode(t, aecodes.Params{Alpha: 3, S: 2, P: 5}, 16)
	code.SetPuncture(func(e aecodes.Edge) bool { return e.Class != aecodes.LeftHanded })
	ent, err := code.Entangle(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, p := range ent.Parities {
		if p.Stored {
			stored++
		}
	}
	if stored != 2 {
		t.Errorf("stored %d parities with LH punctured, want 2", stored)
	}
	code.SetPuncture(nil)
	ent, err = code.Entangle(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ent.Parities {
		if !p.Stored {
			t.Error("nil policy still puncturing")
		}
	}
}

func TestPublicHeadsRoundTrip(t *testing.T) {
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	a := newCode(t, params, 16)
	rng := rand.New(rand.NewSource(2))
	blocks := make([][]byte, 30)
	for i := range blocks {
		blocks[i] = make([]byte, 16)
		rng.Read(blocks[i])
	}
	var wantParities [][]aecodes.Parity
	for _, blk := range blocks {
		ent, err := a.Entangle(blk)
		if err != nil {
			t.Fatal(err)
		}
		wantParities = append(wantParities, ent.Parities)
	}

	b := newCode(t, params, 16)
	for _, blk := range blocks[:15] {
		if _, err := b.Entangle(blk); err != nil {
			t.Fatal(err)
		}
	}
	next, heads := b.Heads()
	c := newCode(t, params, 16)
	if err := c.RestoreHeads(next, heads); err != nil {
		t.Fatal(err)
	}
	for bi, blk := range blocks[15:] {
		ent, err := c.Entangle(blk)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range ent.Parities {
			if !bytes.Equal(ent.Parities[pi].Data, wantParities[15+bi][pi].Data) {
				t.Fatalf("parities diverged at block %d", 16+bi)
			}
		}
	}
}

func TestPublicMinimalErasure(t *testing.T) {
	pat, err := aecodes.MinimalErasure(aecodes.Params{Alpha: 3, S: 1, P: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pat.Size() != 8 {
		t.Errorf("|ME(2)| = %d, want 8", pat.Size())
	}
}

// Every in-repo store speaks the unified dialect (the cooperative
// netStore carries the same assertion in its own package).
var (
	_ aecodes.BlockStore = (*aecodes.MemoryStore)(nil)
	_ aecodes.BlockStore = (*segstore.Lattice)(nil)
)

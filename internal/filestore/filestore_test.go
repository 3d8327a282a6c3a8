package filestore

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

func testManifest() Manifest {
	return Manifest{Alpha: 3, S: 2, P: 5, BlockSize: 32}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPayload(10, 300); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := re.Manifest()
	if m.Blocks != 10 || m.PayloadLen != 300 || m.Alpha != 3 || m.BlockSize != 32 {
		t.Errorf("manifest round trip = %+v", m)
	}
}

func TestCreateValidation(t *testing.T) {
	dir := t.TempDir()
	bad := testManifest()
	bad.Alpha = 9
	if _, err := Create(dir, bad); err == nil {
		t.Error("accepted invalid params")
	}
	bad = testManifest()
	bad.BlockSize = 0
	if _, err := Create(dir, bad); err == nil {
		t.Error("accepted zero block size")
	}
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("opened directory without manifest")
	}
}

func TestStoreContract(t *testing.T) {
	s, err := Create(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 32)
	if err := s.PutData(bg, 1, data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Data(1)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Data = %v,%v", got, ok)
	}
	e := lattice.Edge{Class: lattice.RightHanded, Left: 1, Right: 4}
	if err := s.PutParity(bg, e, data); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Parity(e); !ok {
		t.Error("Parity missing after PutParity")
	}
	virt := lattice.Edge{Class: lattice.Horizontal, Left: -1, Right: 1}
	zb, ok := s.Parity(virt)
	if !ok || !bytes.Equal(zb, make([]byte, 32)) {
		t.Error("virtual edge not zero/available")
	}
	if err := s.PutParity(bg, virt, data); err == nil {
		t.Error("stored virtual edge")
	}
	if err := s.PutData(bg, 2, []byte{1}); err == nil {
		t.Error("accepted short data block")
	}
	if err := s.PutParity(bg, e, []byte{1}); err == nil {
		t.Error("accepted short parity block")
	}
}

func TestEndToEndRepair(t *testing.T) {
	// Encode 40 blocks into the directory, delete a handful of files,
	// round-repair, verify.
	dir := t.TempDir()
	m := testManifest()
	s, err := Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := entangle.NewEncoder(m.Params(), m.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	originals := make([][]byte, 41)
	for i := 1; i <= 40; i++ {
		data := make([]byte, m.BlockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutData(bg, ent.Index, data); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := s.PutParity(bg, p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.SetPayload(40, 40*int64(m.BlockSize)); err != nil {
		t.Fatal(err)
	}

	// Node 20 is a bottom node, so its RH out-edge wraps: 20+10−3 = 27.
	for _, name := range []string{"d_10", "d_11", "p_h_10_12", "p_rh_20_27"} {
		if err := s.Delete(name); err != nil {
			t.Fatalf("Delete(%s): %v", name, err)
		}
	}
	if got := s.MissingData(); len(got) != 2 {
		t.Fatalf("MissingData = %v", got)
	}
	rep, err := entangle.NewRepairer(m.Params(), m.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rep.Repair(bg, store.Batch(s), entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 || len(stats.UnrepairedParities) != 0 {
		t.Fatalf("repair incomplete: %+v", stats)
	}
	for i := 1; i <= 40; i++ {
		got, ok := s.Data(i)
		if !ok || !bytes.Equal(got, originals[i]) {
			t.Errorf("block %d corrupt after repair", i)
		}
	}
}

func TestListAndDeleteSafety(t *testing.T) {
	s, err := Create(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutData(bg, 1, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "d_1" {
		t.Errorf("List = %v", names)
	}
	if err := s.Delete("manifest.json"); err == nil {
		t.Error("deleted the manifest")
	}
	if err := s.Delete("../escape"); err == nil {
		t.Error("deleted outside the directory")
	}
}

func TestParseParityName(t *testing.T) {
	e, ok := ParseParityName("p_rh_25_26")
	if !ok || e.Class != lattice.RightHanded || e.Left != 25 || e.Right != 26 {
		t.Errorf("ParseParityName = %v,%v", e, ok)
	}
	for _, bad := range []string{"d_5", "p_zz_1_2", "p_h_x_2", "p_h_1", "manifest.json"} {
		if _, ok := ParseParityName(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

// bg is the context used by tests that do not exercise cancellation.
var bg = context.Background()

// TestGetManyPartialOnDamage pins the prefetch contract over the adapted
// directory store: damaged or deleted block files come back as nil
// entries from GetMany — never a batch error — matching every other
// backend's partial-result semantics.
func TestGetManyPartialOnDamage(t *testing.T) {
	s, err := Create(t.TempDir(), testManifest())
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{5}, 32)
	for i := 1; i <= 3; i++ {
		if err := s.PutData(bg, i, block); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("d_2"); err != nil {
		t.Fatal(err)
	}
	bs := store.Batch(s)
	blocks, err := bs.GetMany(bg, []store.Ref{store.DataRef(1), store.DataRef(2), store.DataRef(3)})
	if err != nil {
		t.Fatalf("GetMany over a damaged archive failed: %v", err)
	}
	if blocks[0] == nil || blocks[2] == nil {
		t.Error("intact blocks missing from batch")
	}
	if blocks[1] != nil {
		t.Errorf("deleted block came back non-nil: %v", blocks[1])
	}
}

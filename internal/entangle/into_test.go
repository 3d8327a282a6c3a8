package entangle

import (
	"bytes"
	"math/rand"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/xorblock"
)

// entangleAll runs a reference sequential encode and returns every parity
// (stored or not) keyed by edge, plus the final encoder.
func entangleAll(t *testing.T, params lattice.Params, blocks [][]byte, blockSize int) (map[lattice.Edge][]byte, *Encoder) {
	t.Helper()
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[lattice.Edge][]byte)
	for _, data := range blocks {
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			out[p.Edge] = p.Data
		}
	}
	return out, enc
}

func randBlocks(n, blockSize int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, blockSize)
		rng.Read(blocks[i])
	}
	return blocks
}

func TestEntangleIntoMatchesEntangle(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize = 60, 32
	blocks := randBlocks(n, blockSize, 42)
	want, wantEnc := entangleAll(t, params, blocks, blockSize)

	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, params.Alpha)
	for i := range bufs {
		bufs[i] = make([]byte, blockSize)
	}
	for bi, data := range blocks {
		ent, err := enc.EntangleInto(data, bufs)
		if err != nil {
			t.Fatalf("EntangleInto(%d): %v", bi+1, err)
		}
		for k, p := range ent.Parities {
			if &p.Data[0] != &bufs[k][0] {
				t.Fatalf("parity %d does not alias the supplied buffer", k)
			}
			if !bytes.Equal(p.Data, want[p.Edge]) {
				t.Fatalf("block %d parity %v differs from sequential encode", bi+1, p.Edge)
			}
		}
	}
	_, wantHeads := wantEnc.Heads()
	_, gotHeads := enc.Heads()
	for i := range wantHeads {
		if !bytes.Equal(wantHeads[i].Data, gotHeads[i].Data) {
			t.Errorf("strand %d head differs after EntangleInto run", i)
		}
	}
}

func TestEntangleIntoValidation(t *testing.T) {
	enc, err := NewEncoder(lattice.Params{Alpha: 2, S: 2, P: 5}, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16)
	if _, err := enc.EntangleInto(data, make([][]byte, 1)); err == nil {
		t.Error("wrong buffer count accepted")
	}
	if _, err := enc.EntangleInto(data, [][]byte{make([]byte, 16), make([]byte, 15)}); err == nil {
		t.Error("wrong buffer size accepted")
	}
	if next := enc.Next(); next != 1 {
		t.Errorf("failed EntangleInto advanced the position to %d", next)
	}
}

func TestEntangleBatchMatchesEntangle(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 5, P: 5}
	const n, blockSize = 40, 24
	blocks := randBlocks(n, blockSize, 7)
	want, _ := entangleAll(t, params, blocks, blockSize)

	pool := xorblock.NewPool(blockSize)
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := enc.EntangleBatch(blocks, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("got %d entanglements, want %d", len(ents), n)
	}
	for _, ent := range ents {
		for _, p := range ent.Parities {
			if !bytes.Equal(p.Data, want[p.Edge]) {
				t.Fatalf("parity %v differs from sequential encode", p.Edge)
			}
			pool.Put(p.Data)
		}
	}

	// Pool size mismatch is rejected.
	if _, err := enc.EntangleBatch(blocks, xorblock.NewPool(blockSize+1)); err == nil {
		t.Error("mismatched pool accepted")
	}
	// Nil pool allocates.
	enc2, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc2.EntangleBatch(blocks[:2], nil); err != nil {
		t.Errorf("nil pool: %v", err)
	}
}

func TestPlanApplyMatchesEntangle(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize = 50, 16
	blocks := randBlocks(n, blockSize, 5)
	want, _ := entangleAll(t, params, blocks, blockSize)

	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for bi, data := range blocks {
		i, ops, err := enc.PlanNext()
		if err != nil {
			t.Fatal(err)
		}
		if i != bi+1 {
			t.Fatalf("PlanNext assigned %d, want %d", i, bi+1)
		}
		if len(ops) != params.Alpha {
			t.Fatalf("PlanNext returned %d ops, want %d", len(ops), params.Alpha)
		}
		for _, op := range ops {
			par, err := enc.ApplyOp(op, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(par.Data, want[par.Edge]) {
				t.Fatalf("block %d op %v: parity differs from sequential encode", i, op.Edge)
			}
		}
	}
}

func TestPlanNextHonoursPuncture(t *testing.T) {
	enc, err := NewEncoder(lattice.Params{Alpha: 3, S: 2, P: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	enc.SetPuncture(func(e lattice.Edge) bool { return e.Class != lattice.LeftHanded })
	_, ops, err := enc.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		want := op.Edge.Class != lattice.LeftHanded
		if op.Stored != want {
			t.Errorf("op %v: Stored = %v, want %v", op.Edge, op.Stored, want)
		}
	}
}

func TestApplyOpValidation(t *testing.T) {
	enc, err := NewEncoder(lattice.Params{Alpha: 2, S: 2, P: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.ApplyOp(StrandOp{StrandID: 0}, make([]byte, 7)); err == nil {
		t.Error("wrong data size accepted")
	}
	if _, err := enc.ApplyOp(StrandOp{StrandID: 99}, make([]byte, 8)); err == nil {
		t.Error("out-of-range strand id accepted")
	}
}

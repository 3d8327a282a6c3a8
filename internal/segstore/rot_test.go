package segstore

// Tests of rot found by reads: a read that meets a record failing its
// check drops the key, a racing rewrite survives the drop, and over a
// Lattice the repair engine turns rot into an erasure it rebuilds.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// TestReadDropKeepsARewrite races a read that finds a rotted record
// against a Put rewriting the key (run it under -race). Whichever takes
// the write lock first, the read drops the key only while the index
// still points at the record it found rotten, so the rewrite is never
// lost, and the read never serves the rotten bytes. Get and GetBatch
// take turns.
func TestReadDropKeepsARewrite(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 400; i++ {
		// A large record keeps the read, and so the window in which the
		// Put queues for the lock behind it, long.
		if err := s.Put("k", bytes.Repeat([]byte{byte(i)}, 256<<10)); err != nil {
			t.Fatal(err)
		}
		corruptRecord(t, s, "k")
		fresh := []byte(fmt.Sprintf("rewrite %d", i))
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			var got [][]byte
			if i%2 == 0 {
				b, _ := s.Get("k")
				got = append(got, b)
			} else {
				got = s.GetBatch([]string{"k", "k"})
			}
			for _, b := range got {
				if b != nil && !bytes.Equal(b, fresh) {
					t.Errorf("round %d: a read served %d bytes that are not the rewrite", i, len(b))
				}
			}
		}()
		<-started
		if err := s.Put("k", fresh); err != nil {
			t.Fatal(err)
		}
		<-done
		if got, ok := s.Get("k"); !ok || !bytes.Equal(got, fresh) {
			t.Fatalf("round %d: the rewrite lost to the read's drop: ok=%v %q", i, ok, got)
		}
	}
}

// rotFixture is an AE(3,2,5) lattice of 64-byte blocks written both to a
// segstore Lattice (over segments of 4 KiB, so most records sit in
// sealed segments) and to an entangle.MemoryStore, with every block's
// original bytes.
type rotFixture struct {
	seg  *Store
	lat  *Lattice
	mem  *entangle.MemoryStore
	rep  *entangle.Repairer
	n    int
	refs []store.Ref // every stored block, in encoding order
	orig map[store.Ref][]byte
}

func newRotFixture(t *testing.T, n int) *rotFixture {
	t.Helper()
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const blockSize = 64
	f := &rotFixture{
		seg:  mustOpen(t, t.TempDir(), Options{SegmentSize: 4 << 10}),
		mem:  entangle.NewMemoryStore(blockSize),
		n:    n,
		orig: make(map[store.Ref][]byte),
	}
	var err error
	if f.lat, err = NewLattice(f.seg, Shape{Params: params, Blocks: n, BlockSize: blockSize}); err != nil {
		t.Fatal(err)
	}
	if f.rep, err = entangle.NewRepairer(params); err != nil {
		t.Fatal(err)
	}
	enc, err := entangle.NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		for j := range data {
			data[j] = byte(i*131 + j*7)
		}
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		blocks := []store.Block{{Ref: store.DataRef(ent.Index), Data: data}}
		for _, p := range ent.Parities {
			blocks = append(blocks, store.Block{Ref: store.ParityRef(p.Edge), Data: append([]byte(nil), p.Data...)})
		}
		for _, b := range blocks {
			f.refs = append(f.refs, b.Ref)
			f.orig[b.Ref] = b.Data
		}
		if err := f.lat.PutMany(ctx, blocks); err != nil {
			t.Fatal(err)
		}
		if err := f.mem.PutMany(ctx, blocks); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// rot flips byte at of r's record on the segstore side.
func (f *rotFixture) rot(t *testing.T, r store.Ref, at int64) {
	t.Helper()
	flipRecordByte(t, f.seg, refKey(r), at)
}

// erase deletes r on the segstore side.
func (f *rotFixture) erase(r store.Ref) { f.seg.Del(refKey(r)) }

// lose marks r lost on the MemoryStore side.
func (f *rotFixture) lose(r store.Ref) {
	if r.Parity {
		f.mem.LoseParity(r.Edge)
	} else {
		f.mem.LoseData(r.Index)
	}
}

// surface makes one pass that finds every rotted record: a full
// ScrubStep cycle, or one GetMany of every block.
func (f *rotFixture) surface(t *testing.T, scrub bool) {
	t.Helper()
	if !scrub {
		if _, err := f.lat.GetMany(context.Background(), f.refs); err != nil {
			t.Fatal(err)
		}
		return
	}
	for cursor := ""; ; {
		res := f.seg.ScrubStep(cursor, 4<<10)
		if cursor = res.Next; cursor == "" {
			return
		}
	}
}

// read returns every block of st, nil where it serves none, and fails
// the test if any block it serves differs from the original.
func (f *rotFixture) read(t *testing.T, name string, st store.BlockStore) [][]byte {
	t.Helper()
	blocks, err := st.GetMany(context.Background(), f.refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if b != nil && !bytes.Equal(b, f.orig[f.refs[i]]) {
			t.Fatalf("%s: %v reads back different from the original", name, f.refs[i])
		}
	}
	return blocks
}

// TestRepairConvergesOnRottedLattice is the engine's side of the
// contract: rot some data and parity records at rest and delete others.
// The first Repair sees the rot as present and must still return no
// error; one read or scrub pass surfaces whatever rot its fetches did
// not, and a second Repair leaves the lattice healthy, every block
// byte-equal to the original.
func TestRepairConvergesOnRottedLattice(t *testing.T) {
	for _, scrub := range []bool{true, false} {
		t.Run(fmt.Sprintf("scrub=%v", scrub), func(t *testing.T) {
			ctx := context.Background()
			f := newRotFixture(t, 60)
			rng := rand.New(rand.NewSource(28))
			var rotted []store.Ref
			for k, r := range f.refs {
				switch x := rng.Float64(); {
				case x < 0.1:
					f.rot(t, r, int64(k))
					rotted = append(rotted, r)
				case x < 0.2:
					f.erase(r)
				}
			}
			if _, err := f.rep.Repair(ctx, f.lat, entangle.Options{}); err != nil {
				t.Fatalf("first Repair over unseen rot: %v", err)
			}
			// The fixture is only a test of both halves if the first
			// Repair's fetches met some of the rot and left some unseen.
			unseen := 0
			for _, r := range rotted {
				if f.seg.Has(refKey(r)) {
					unseen++
				}
			}
			if unseen == 0 || unseen == len(rotted) {
				t.Fatalf("the first Repair's fetches found %d of %d rotted records, want some but not all", len(rotted)-unseen, len(rotted))
			}
			f.surface(t, scrub)
			if _, err := f.rep.Repair(ctx, f.lat, entangle.Options{}); err != nil {
				t.Fatalf("second Repair: %v", err)
			}
			h, err := f.rep.Health(ctx, f.lat, f.n)
			if err != nil {
				t.Fatal(err)
			}
			if !h.Healthy() {
				t.Fatalf("after one pass and a second Repair the lattice still misses %v / %v (%d records rotted)", h.Missing.Data, h.Missing.Parities, len(rotted))
			}
			for i, b := range f.read(t, "after the second Repair", f.lat) {
				if b == nil {
					t.Fatalf("%v unreadable after a healthy Health", f.refs[i])
				}
			}
		})
	}
}

// FuzzLatticeRot is a differential property: rot, once surfaced, equals
// deletion. The first byte picks n in 8..64, the second's low bit
// whether a full ScrubStep cycle or one read of every block surfaces the
// rot, and the rest holds two bits per block in encoding order (cycled
// when short): 1 deletes the block, 2 flips one byte of its record on
// disk. The segstore Lattice is surfaced and repaired; an
// entangle.MemoryStore holding the same lattice loses deleted ∪ rotted
// and is repaired too. Both must end with the same present set and
// identical bytes, and no block may ever read back different from the
// original.
func FuzzLatticeRot(f *testing.F) {
	f.Add([]byte{20, 0, 0x24, 0x00, 0x81, 0x10}) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		ctx := context.Background()
		fx := newRotFixture(t, 8+int(in[0])%57)
		bits := in[2:]
		for k, r := range fx.refs {
			switch bits[(k/4)%len(bits)] >> (2 * (k % 4)) & 3 {
			case 1:
				fx.erase(r)
				fx.lose(r)
			case 2:
				fx.rot(t, r, int64(k*131)+int64(in[1]))
				fx.lose(r)
			}
		}
		fx.surface(t, in[1]&1 == 0)
		segMissing, err := fx.lat.Missing(ctx)
		if err != nil {
			t.Fatal(err)
		}
		memMissing, err := fx.mem.Missing(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(segMissing) != fmt.Sprint(memMissing) {
			t.Fatalf("surfaced rot is not deletion: segstore misses %v, memory %v", segMissing, memMissing)
		}
		for _, st := range []store.BlockStore{fx.lat, fx.mem} {
			if _, err := fx.rep.Repair(ctx, st, entangle.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		seg := fx.read(t, "segstore", fx.lat)
		mem := fx.read(t, "memory", fx.mem)
		for i := range seg {
			if (seg[i] == nil) != (mem[i] == nil) {
				t.Fatalf("%v: segstore serves it %v, memory %v", fx.refs[i], seg[i] != nil, mem[i] != nil)
			}
		}
	})
}

// Package storetest is the executable form of the storage dialect's
// contract: one conformance suite that every store.BlockStore backend —
// memory maps, clustered locations, directory archives, durable segment
// logs — runs against its own constructor, so the contracts the repair
// engine leans on (ErrNotFound sentinels, copy-on-put, GetMany's
// nil-entry partial results, Missing agreeing with the availability
// view, virtual edges reading as zero) are pinned in one place instead
// of re-derived per backend. RunKeyed does the same for store.Keyed, the
// contract a storage node serves.
package storetest

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// Harness describes one backend under test. Params, Blocks and BlockSize
// must match the shape the New constructor builds; Reopen is optional
// and only set for durable backends.
type Harness struct {
	// Params is the lattice geometry the store serves.
	Params lattice.Params
	// Blocks is the number of data positions the suite writes (1-based).
	Blocks int
	// BlockSize is the exact byte size of every block.
	BlockSize int
	// New returns a fresh, empty store.
	New func(t *testing.T) store.BlockStore
	// Reopen, when non-nil, closes s and returns a new handle over the
	// same persisted state — the durability leg of the suite. Memory
	// backends leave it nil.
	Reopen func(t *testing.T, s store.BlockStore) store.BlockStore
}

// Run exercises the full BlockStore contract against the harness.
func Run(t *testing.T, h Harness) {
	if h.New == nil || h.Blocks < 2 || h.BlockSize < 1 {
		t.Fatalf("storetest: harness needs New, Blocks >= 2 and BlockSize >= 1 (got Blocks=%d BlockSize=%d)", h.Blocks, h.BlockSize)
	}
	lat, err := lattice.New(h.Params)
	if err != nil {
		t.Fatalf("storetest: bad harness params %v: %v", h.Params, err)
	}
	ctx := context.Background()

	t.Run("RoundTrip", func(t *testing.T) {
		s := h.New(t)
		h.fillAll(t, s, lat)
		h.verifyAll(t, s, lat)
	})

	t.Run("NotFoundSentinel", func(t *testing.T) {
		s := h.New(t)
		if _, err := s.GetData(ctx, 1); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("GetData on empty store = %v, want ErrNotFound", err)
		}
		e := h.realEdge(t, lat)
		if _, err := s.GetParity(ctx, e); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("GetParity on empty store = %v, want ErrNotFound", err)
		}
	})

	t.Run("VirtualEdgeReadsZero", func(t *testing.T) {
		e, ok := virtualEdge(lat, h.Blocks)
		if !ok {
			t.Skip("no virtual edge in this geometry")
		}
		s := h.New(t)
		b, err := s.GetParity(ctx, e)
		if err != nil {
			t.Fatalf("GetParity(virtual %v) = %v, want zero block", e, err)
		}
		if len(b) != h.BlockSize || !bytes.Equal(b, make([]byte, h.BlockSize)) {
			t.Errorf("virtual edge read %d non-zero bytes, want %d zeros", len(b), h.BlockSize)
		}
		if err := s.PutParity(ctx, e, h.block(1)); err == nil {
			t.Error("PutParity accepted a virtual edge")
		}
	})

	t.Run("PutCopies", func(t *testing.T) {
		s := h.New(t)
		b := h.block(7)
		if err := s.PutData(ctx, 1, b); err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 0xAA
		}
		got, err := s.GetData(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, h.block(7)) {
			t.Error("PutData retained the caller's slice: read-back changed after caller mutation")
		}
	})

	t.Run("GetManyPartial", func(t *testing.T) {
		s := h.New(t)
		if err := s.PutData(ctx, 1, h.block(1)); err != nil {
			t.Fatal(err)
		}
		e := h.realEdge(t, lat)
		if err := s.PutParity(ctx, e, h.block(100)); err != nil {
			t.Fatal(err)
		}
		refs := []store.Ref{store.DataRef(1), store.DataRef(2), store.ParityRef(e)}
		got, err := s.GetMany(ctx, refs)
		if err != nil {
			t.Fatalf("GetMany with missing entries failed: %v (missing blocks must be nil entries, not errors)", err)
		}
		if len(got) != len(refs) {
			t.Fatalf("GetMany returned %d entries for %d refs", len(got), len(refs))
		}
		if !bytes.Equal(got[0], h.block(1)) {
			t.Error("present data entry wrong or nil")
		}
		if got[1] != nil {
			t.Error("missing data entry non-nil")
		}
		if !bytes.Equal(got[2], h.block(100)) {
			t.Error("present parity entry wrong or nil")
		}
	})

	t.Run("PutManyReadbackAndCopy", func(t *testing.T) {
		s := h.New(t)
		e := h.realEdge(t, lat)
		blocks := []store.Block{
			{Ref: store.DataRef(1), Data: h.block(1)},
			{Ref: store.DataRef(2), Data: h.block(2)},
			{Ref: store.ParityRef(e), Data: h.block(100)},
		}
		if err := s.PutMany(ctx, blocks); err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			for i := range b.Data {
				b.Data[i] = 0x55
			}
		}
		got, err := s.GetMany(ctx, []store.Ref{blocks[0].Ref, blocks[1].Ref, blocks[2].Ref})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 2, 100} {
			if !bytes.Equal(got[i], h.block(want)) {
				t.Errorf("entry %d: PutMany lost or retained the block", i)
			}
		}
	})

	t.Run("PutManyBufferReuse", func(t *testing.T) {
		// The consume-before-return contract behind the zero-copy frame
		// path: the moment PutMany returns, the caller may reuse the very
		// same buffers for the next batch — exactly what a pooled
		// transport arena does. Two generations through one set of
		// buffers must both read back intact.
		s := h.New(t)
		bufs := [][]byte{h.block(1), h.block(2)}
		gen1 := []store.Block{
			{Ref: store.DataRef(1), Data: bufs[0]},
			{Ref: store.DataRef(2), Data: bufs[1]},
		}
		if err := s.PutMany(ctx, gen1); err != nil {
			t.Fatal(err)
		}
		copy(bufs[0], h.block(3))
		copy(bufs[1], h.block(4))
		e := h.realEdge(t, lat)
		gen2 := []store.Block{
			{Ref: store.ParityRef(e), Data: bufs[0]},
		}
		if err := s.PutMany(ctx, gen2); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetMany(ctx, []store.Ref{store.DataRef(1), store.DataRef(2), store.ParityRef(e)})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{1, 2, 3} {
			if !bytes.Equal(got[i], h.block(want)) {
				t.Errorf("entry %d corrupted by buffer reuse: store retained the caller's slice", i)
			}
		}
	})

	t.Run("GetManyStableAfterOverwrite", func(t *testing.T) {
		// The read-side mirror: blocks GetMany hands out belong to the
		// caller and must not alias store internals — overwriting the
		// position afterwards must not mutate the previously returned
		// slice under the repair engine's feet.
		s := h.New(t)
		if err := s.PutData(ctx, 1, h.block(1)); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetMany(ctx, []store.Ref{store.DataRef(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutData(ctx, 1, h.block(9)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], h.block(1)) {
			t.Error("GetMany result changed after overwrite: store handed out an aliased internal buffer")
		}
	})

	t.Run("MissingAgreesWithGetMany", func(t *testing.T) {
		s := h.New(t)
		h.fillAll(t, s, lat)
		m, err := s.Missing(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Empty() {
			t.Fatalf("fully-written store reports missing blocks: %+v", m)
		}
		// The agreement direction that is checkable generically: every
		// block Missing enumerates must be one GetMany cannot serve.
		partial := h.New(t)
		if err := partial.PutData(ctx, 1, h.block(1)); err != nil {
			t.Fatal(err)
		}
		m, err = partial.Missing(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var refs []store.Ref
		for _, i := range m.Data {
			refs = append(refs, store.DataRef(i))
		}
		for _, e := range m.Parities {
			refs = append(refs, store.ParityRef(e))
		}
		got, err := partial.GetMany(ctx, refs)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != nil {
				t.Errorf("Missing enumerated %v but GetMany serves it", refs[i])
			}
		}
	})

	t.Run("CanceledContext", func(t *testing.T) {
		s := h.New(t)
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.GetMany(canceled, []store.Ref{store.DataRef(1)}); !errors.Is(err, context.Canceled) {
			t.Errorf("GetMany on canceled context = %v, want context.Canceled", err)
		}
		err := s.PutMany(canceled, []store.Block{{Ref: store.DataRef(1), Data: h.block(1)}})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("PutMany on canceled context = %v, want context.Canceled", err)
		}
	})

	if h.Reopen != nil {
		t.Run("ReopenDurability", func(t *testing.T) {
			s := h.New(t)
			h.fillAll(t, s, lat)
			s = h.Reopen(t, s)
			h.verifyAll(t, s, lat)
			m, err := s.Missing(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Empty() {
				t.Errorf("reopened store reports missing blocks: %+v", m)
			}
		})
	}
}

// RunKeyed exercises the store.Keyed contract against fresh stores from
// newStore: everything a transport.Server relies on when it turns one wire
// frame into one store call and recycles the frame's buffer afterwards.
func RunKeyed(t *testing.T, newStore func(t *testing.T) store.Keyed) {
	// agree checks StatBatch against GetBatch entry for entry.
	agree := func(t *testing.T, s store.Keyed, keys []string) [][]byte {
		t.Helper()
		blocks, sizes := s.GetBatch(keys), s.StatBatch(keys)
		if len(blocks) != len(keys) || len(sizes) != len(keys) {
			t.Fatalf("%d keys answered with %d blocks and %d sizes", len(keys), len(blocks), len(sizes))
		}
		for i, b := range blocks {
			want := len(b)
			if b == nil {
				want = -1
			}
			if sizes[i] != want {
				t.Errorf("StatBatch[%q] = %d, GetBatch says %d", keys[i], sizes[i], want)
			}
		}
		return blocks
	}

	t.Run("PutGetDel", func(t *testing.T) {
		s := newStore(t)
		if _, ok := s.Get("k"); ok {
			t.Error("Get on an empty store found a block")
		}
		s.Del("k") // deleting a missing key is not an error
		if err := s.Put("k", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("k", []byte("two!")); err != nil {
			t.Fatal(err)
		}
		if b, ok := s.Get("k"); !ok || string(b) != "two!" {
			t.Errorf("Get after overwrite = %q, %v", b, ok)
		}
		s.Del("k")
		if _, ok := s.Get("k"); ok {
			t.Error("Get after Del found the block")
		}
		if blocks := agree(t, s, []string{"k"}); blocks[0] != nil {
			t.Error("GetBatch after Del served the block")
		}
	})

	t.Run("MissingVersusEmpty", func(t *testing.T) {
		s := newStore(t)
		if err := s.Put("empty-put", nil); err != nil {
			t.Fatal(err)
		}
		err := s.PutBatch([]store.KV{{Key: "empty-batch", Data: []byte{}}, {Key: "full", Data: []byte("content")}})
		if err != nil {
			t.Fatal(err)
		}
		blocks := agree(t, s, []string{"full", "empty-put", "missing", "empty-batch"})
		if string(blocks[0]) != "content" {
			t.Errorf("full block = %q", blocks[0])
		}
		for _, i := range []int{1, 3} {
			if blocks[i] == nil || len(blocks[i]) != 0 {
				t.Errorf("present-but-empty entry %d = %#v, want non-nil empty", i, blocks[i])
			}
		}
		if blocks[2] != nil {
			t.Error("missing key came back non-nil")
		}
	})

	t.Run("DuplicateKeysLastWins", func(t *testing.T) {
		s := newStore(t)
		err := s.PutBatch([]store.KV{
			{Key: "dup", Data: []byte("first")},
			{Key: "other", Data: []byte("x")},
			{Key: "dup", Data: []byte("the last")},
		})
		if err != nil {
			t.Fatal(err)
		}
		if blocks := agree(t, s, []string{"dup", "other"}); string(blocks[0]) != "the last" {
			t.Errorf("duplicate key holds %q, want the batch's last write", blocks[0])
		}
	})

	t.Run("ConsumeBeforeReturn", func(t *testing.T) {
		// The caller recycles every data slice the moment the write
		// returns — exactly what the server does with its pooled receive
		// buffer — so scribbling over them must not reach what was stored.
		s := newStore(t)
		arena := []byte("single-put|batch-item-a|batch-item-b")
		want := string(arena)
		single, a, b := arena[:10], arena[11:23], arena[24:]
		if err := s.Put("single", single); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch([]store.KV{{Key: "a", Data: a}, {Key: "b", Data: b}}); err != nil {
			t.Fatal(err)
		}
		for i := range arena {
			arena[i] = 0xEE
		}
		blocks := agree(t, s, []string{"single", "a", "b"})
		for i, w := range []string{want[:10], want[11:23], want[24:]} {
			if !bytes.Equal(blocks[i], []byte(w)) {
				t.Errorf("entry %d = %q, want %q: the store retained the caller's buffer", i, blocks[i], w)
			}
		}
	})
}

// block returns the deterministic content of block seed.
func (h Harness) block(seed int) []byte {
	b := make([]byte, h.BlockSize)
	for i := range b {
		b[i] = byte(seed*31 + i*7 + 1)
	}
	return b
}

// edges returns the storable parity edges of the harness's data
// positions — the same expected set Missing implementations enumerate.
func (h Harness) edges(lat *lattice.Lattice) []lattice.Edge {
	return lat.RealOutEdges(h.Blocks)
}

// realEdge returns one storable parity edge.
func (h Harness) realEdge(t *testing.T, lat *lattice.Lattice) lattice.Edge {
	t.Helper()
	es := h.edges(lat)
	if len(es) == 0 {
		t.Fatal("storetest: geometry has no real parity edges")
	}
	return es[0]
}

// virtualEdge finds a strand-seed edge, if the geometry has one.
func virtualEdge(lat *lattice.Lattice, blocks int) (lattice.Edge, bool) {
	for i := 1; i <= blocks; i++ {
		for _, class := range lat.Classes() {
			if e, err := lat.InEdge(class, i); err == nil && e.IsVirtual() {
				return e, true
			}
		}
	}
	return lattice.Edge{}, false
}

// fillAll writes every data block and every real out-edge parity.
func (h Harness) fillAll(t *testing.T, s store.BlockStore, lat *lattice.Lattice) {
	t.Helper()
	ctx := context.Background()
	for i := 1; i <= h.Blocks; i++ {
		if err := s.PutData(ctx, i, h.block(i)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	for _, e := range h.edges(lat) {
		if err := s.PutParity(ctx, e, h.block(edgeSeed(e))); err != nil {
			t.Fatalf("PutParity(%v): %v", e, err)
		}
	}
}

// verifyAll reads back everything fillAll wrote, single-op and batched.
func (h Harness) verifyAll(t *testing.T, s store.BlockStore, lat *lattice.Lattice) {
	t.Helper()
	ctx := context.Background()
	var refs []store.Ref
	var want [][]byte
	for i := 1; i <= h.Blocks; i++ {
		refs = append(refs, store.DataRef(i))
		want = append(want, h.block(i))
	}
	for _, e := range h.edges(lat) {
		refs = append(refs, store.ParityRef(e))
		want = append(want, h.block(edgeSeed(e)))
	}
	for i, r := range refs {
		got, err := store.Get(ctx, s, r)
		if err != nil {
			t.Fatalf("Get(%v): %v", r, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("Get(%v): content mismatch", r)
		}
	}
	got, err := s.GetMany(ctx, refs)
	if err != nil {
		t.Fatalf("GetMany over full store: %v", err)
	}
	for i := range refs {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("GetMany entry %v: content mismatch", refs[i])
		}
	}
}

// edgeSeed derives a content seed from an edge, distinct from the data
// block seeds 1..Blocks.
func edgeSeed(e lattice.Edge) int {
	return 1000 + int(e.Class)*101 + e.Left*13 + e.Right
}

package entangle

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// Source is the read view the repair engine needs: the context-aware read
// slice of the unified storage dialect. Implementations must treat
// virtual edges (Edge.IsVirtual) as always available with all-zero
// content; ZeroBlock helps with that. Reads of unavailable blocks return
// an error wrapping store.ErrNotFound.
type Source = store.Source

// Store is the full batch-native dialect the round-based repair engine
// drives: reads, writes, missing-block enumeration and the GetMany /
// PutMany batches the engine uses to move whole rounds at once.
//
// Put implementations must not retain the block slice after returning
// (copy it, or transmit it before returning): the engines recycle block
// buffers through a pool the moment a Put or PutMany call completes.
// Every Store in this repository already copies.
type Store = store.BlockStore

// ZeroBlock returns an all-zero block of the given size, backing every
// virtual-edge read. Callers must not mutate the returned slice.
func ZeroBlock(size int) []byte { return store.ZeroBlock(size) }

// MemoryStore is an in-memory BlockStore for tests, tools and examples:
// a view over one store.Mem, holding each block under its ref's
// canonical string ("d26", "p21,26(h)"), the key segstore.Lattice uses.
// Its only other state is the set of refs ever stored, the blocks it
// should hold: a block is lost when it is known but the Mem no longer
// holds it, and a put restores it. The zero value is not usable;
// construct with NewMemoryStore.
//
// Beyond the interface it keeps bool-style accessors (Data, Parity,
// MissingData, MissingParities) and the failure levers (LoseData,
// LoseParity, CorruptData) used by tests and simulators. Every read
// returns a copy the caller owns.
//
// MemoryStore is safe for concurrent use. Its batch operations are
// natively batched: one Mem batch call per GetMany/PutMany.
type MemoryStore struct {
	mu        sync.RWMutex
	blockSize int
	mem       *store.Mem
	known     map[store.Ref]string // every ref ever stored, with its key
}

var _ store.BlockStore = (*MemoryStore)(nil)

// NewMemoryStore returns an empty store for blocks of the given size.
func NewMemoryStore(blockSize int) *MemoryStore {
	return &MemoryStore{
		blockSize: blockSize,
		mem:       store.NewMem(),
		known:     make(map[store.Ref]string),
	}
}

// Data returns a copy of data block i and whether it is available.
func (m *MemoryStore) Data(i int) ([]byte, bool) {
	return m.get(store.DataRef(i))
}

// Parity returns a copy of the parity on edge e and whether it is
// available. Virtual edges read as zero blocks.
func (m *MemoryStore) Parity(e lattice.Edge) ([]byte, bool) {
	return m.get(store.ParityRef(e))
}

func (m *MemoryStore) get(r store.Ref) ([]byte, bool) {
	b := m.read([]store.Ref{r})[0]
	return b, b != nil
}

// read returns a copy of every ref's block, nil for one not held;
// virtual edges read as zero blocks.
func (m *MemoryStore) read(refs []store.Ref) [][]byte {
	out := make([][]byte, len(refs))
	keys := make([]string, len(refs))
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, r := range refs {
		keys[i] = m.known[r] // "" for a ref never stored: the Mem holds no such key
	}
	m.mem.ReadBatch(keys, func(blocks [][]byte) error {
		for i, b := range blocks {
			switch {
			case refs[i].Parity && refs[i].Edge.IsVirtual():
				out[i] = ZeroBlock(m.blockSize)
			case b != nil:
				out[i] = bytes.Clone(b)
			}
		}
		return nil
	})
	return out
}

// GetData implements Source.
func (m *MemoryStore) GetData(ctx context.Context, i int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, ok := m.Data(i)
	if !ok {
		return nil, fmt.Errorf("entangle: d%d: %w", i, store.ErrNotFound)
	}
	return b, nil
}

// GetParity implements Source.
func (m *MemoryStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, ok := m.Parity(e)
	if !ok {
		return nil, fmt.Errorf("entangle: parity %v: %w", e, store.ErrNotFound)
	}
	return b, nil
}

// PutData stores (or restores) a data block.
func (m *MemoryStore) PutData(ctx context.Context, i int, b []byte) error {
	return m.PutMany(ctx, []store.Block{{Ref: store.DataRef(i), Data: b}})
}

// PutParity stores (or restores) a parity block.
func (m *MemoryStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	return m.PutMany(ctx, []store.Block{{Ref: store.ParityRef(e), Data: b}})
}

// GetMany implements Store natively: one Mem batch for the whole call.
// Entries for unavailable blocks are nil.
func (m *MemoryStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.read(refs), nil
}

// PutMany implements Store natively: the whole batch is validated first,
// then applied as one Mem batch, which copies it.
func (m *MemoryStore) PutMany(ctx context.Context, blocks []store.Block) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := m.check(b); err != nil {
			return err
		}
	}
	items := make([]store.KV, len(blocks))
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, b := range blocks {
		key, ok := m.known[b.Ref]
		if !ok {
			key = b.Ref.String()
			m.known[b.Ref] = key
		}
		items[i] = store.KV{Key: key, Data: b.Data}
	}
	return m.mem.PutBatch(items)
}

func (m *MemoryStore) check(b store.Block) error {
	switch {
	case b.Ref.Parity && b.Ref.Edge.IsVirtual():
		return fmt.Errorf("entangle: cannot store virtual edge %v", b.Ref.Edge)
	case !b.Ref.Parity && b.Ref.Index < 1:
		return fmt.Errorf("entangle: data position must be >= 1, got %d", b.Ref.Index)
	case len(b.Data) != m.blockSize:
		return fmt.Errorf("entangle: block %v has %d bytes, want %d", b.Ref, len(b.Data), m.blockSize)
	}
	return nil
}

// LoseData drops data block i without forgetting that it should exist,
// simulating a failed location.
func (m *MemoryStore) LoseData(i int) { m.lose(store.DataRef(i)) }

// LoseParity drops the parity on e.
func (m *MemoryStore) LoseParity(e lattice.Edge) { m.lose(store.ParityRef(e)) }

func (m *MemoryStore) lose(r store.Ref) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key, ok := m.known[r]; ok {
		m.mem.Del(key)
	}
}

// CorruptData overwrites the stored content of data block i without marking
// it lost — the tampering scenario of §III's anti-tampering discussion.
func (m *MemoryStore) CorruptData(i int, b []byte) error {
	if len(b) != m.blockSize {
		return fmt.Errorf("entangle: corrupt block has %d bytes, want %d", len(b), m.blockSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key, ok := m.known[store.DataRef(i)]
	if !ok || m.mem.StatBatch([]string{key})[0] < 0 {
		return fmt.Errorf("entangle: no data block at %d", i)
	}
	return m.mem.Put(key, b)
}

// Missing implements Store.
func (m *MemoryStore) Missing(ctx context.Context) (store.Missing, error) {
	if err := ctx.Err(); err != nil {
		return store.Missing{}, err
	}
	return m.missing(), nil
}

// MissingData lists the positions of unavailable data blocks, ascending.
func (m *MemoryStore) MissingData() []int { return m.missing().Data }

// MissingParities lists the unavailable parity edges; order: by class,
// then left index.
func (m *MemoryStore) MissingParities() []lattice.Edge { return m.missing().Parities }

// missing lists the known refs the Mem lacks, under one lock.
func (m *MemoryStore) missing() store.Missing {
	m.mu.RLock()
	refs := make([]store.Ref, 0, len(m.known))
	keys := make([]string, 0, len(m.known))
	for r, key := range m.known {
		refs = append(refs, r)
		keys = append(keys, key)
	}
	sizes := m.mem.StatBatch(keys)
	m.mu.RUnlock()
	var out store.Missing
	for i, r := range refs {
		switch {
		case sizes[i] >= 0:
		case r.Parity:
			out.Parities = append(out.Parities, r.Edge)
		default:
			out.Data = append(out.Data, r.Index)
		}
	}
	sort.Ints(out.Data)
	sort.Slice(out.Parities, func(a, b int) bool {
		pa, pb := out.Parities[a], out.Parities[b]
		if pa.Class != pb.Class {
			return pa.Class < pb.Class
		}
		if pa.Left != pb.Left {
			return pa.Left < pb.Left
		}
		return pa.Right < pb.Right
	})
	return out
}

// DataCount returns the number of data blocks ever stored (available or not).
func (m *MemoryStore) DataCount() int { return m.count(false) }

// ParityCount returns the number of parity blocks ever stored.
func (m *MemoryStore) ParityCount() int { return m.count(true) }

func (m *MemoryStore) count(parity bool) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for r := range m.known {
		if r.Parity == parity {
			n++
		}
	}
	return n
}

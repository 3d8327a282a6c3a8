package segstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// shapeKey is the reserved key holding a Lattice view's persisted shape.
// Keys starting with "!segstore/" belong to the view, not to callers.
const shapeKey = "!segstore/shape"

// Shape fixes the lattice a view serves: code parameters, the number of
// data blocks the store is expected to hold, and the block size every
// stored block must have.
type Shape struct {
	Params    lattice.Params `json:"params"`
	Blocks    int            `json:"blocks"`
	BlockSize int            `json:"block_size"`
}

// Lattice is a store.BlockStore over a store.Keyed — the segment Store
// natively, or a tenant-namespaced view of a shared node, or an in-memory
// transport store: data and parity refs map to canonical keys
// (store.Ref's String form), batches ride the store's batch operations
// (for the segment store: one lock acquisition, one optional fsync per
// batch), and the shape is persisted in the store itself so reopening
// the directory restores the full view. One store (or one tenant
// namespace of it) backs one view — the view owns that whole key space.
type Lattice struct {
	s     store.Keyed
	shape Shape
	lat   *lattice.Lattice
}

var _ store.BlockStore = (*Lattice)(nil)

// NewLattice creates a view with the given shape and persists the shape
// in the store, overwriting any previous one.
func NewLattice(s store.Keyed, shape Shape) (*Lattice, error) {
	lat, err := lattice.New(shape.Params)
	if err != nil {
		return nil, err
	}
	if shape.BlockSize <= 0 {
		return nil, fmt.Errorf("segstore: block size must be positive, got %d", shape.BlockSize)
	}
	if shape.Blocks < 0 {
		return nil, fmt.Errorf("segstore: block count must be non-negative, got %d", shape.Blocks)
	}
	raw, err := json.Marshal(shape)
	if err != nil {
		return nil, fmt.Errorf("segstore: encoding shape: %w", err)
	}
	if err := s.Put(shapeKey, raw); err != nil {
		return nil, err
	}
	return &Lattice{s: s, shape: shape, lat: lat}, nil
}

// OpenLattice restores the view persisted by a previous NewLattice.
func OpenLattice(s store.Keyed) (*Lattice, error) {
	raw, ok := s.Get(shapeKey)
	if !ok {
		return nil, fmt.Errorf("segstore: store holds no lattice shape: %w", store.ErrNotFound)
	}
	var shape Shape
	if err := json.Unmarshal(raw, &shape); err != nil {
		return nil, fmt.Errorf("segstore: parsing shape: %w", err)
	}
	lat, err := lattice.New(shape.Params)
	if err != nil {
		return nil, err
	}
	return &Lattice{s: s, shape: shape, lat: lat}, nil
}

// Shape returns the view's shape.
func (v *Lattice) Shape() Shape { return v.shape }

// Store returns the backing keyed store.
func (v *Lattice) Store() store.Keyed { return v.s }

// SetBlocks updates and persists the expected data-block count — the
// durable analogue of a growing archive.
func (v *Lattice) SetBlocks(n int) error {
	if n < 0 {
		return fmt.Errorf("segstore: block count must be non-negative, got %d", n)
	}
	shape := v.shape
	shape.Blocks = n
	raw, err := json.Marshal(shape)
	if err != nil {
		return fmt.Errorf("segstore: encoding shape: %w", err)
	}
	if err := v.s.Put(shapeKey, raw); err != nil {
		return err
	}
	v.shape = shape
	return nil
}

// refKey names a block inside the store: the ref's canonical string
// form ("d26", "p21,26(h)").
func refKey(r store.Ref) string { return r.String() }

// GetData implements store.Source.
func (v *Lattice) GetData(ctx context.Context, i int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, ok := v.s.Get(refKey(store.DataRef(i)))
	if !ok || len(b) != v.shape.BlockSize {
		return nil, fmt.Errorf("segstore: d%d: %w", i, store.ErrNotFound)
	}
	return b, nil
}

// GetParity implements store.Source; virtual edges read as zero blocks.
func (v *Lattice) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.IsVirtual() {
		return store.ZeroBlock(v.shape.BlockSize), nil
	}
	b, ok := v.s.Get(refKey(store.ParityRef(e)))
	if !ok || len(b) != v.shape.BlockSize {
		return nil, fmt.Errorf("segstore: parity %v: %w", e, store.ErrNotFound)
	}
	return b, nil
}

// PutData implements store.Single.
func (v *Lattice) PutData(ctx context.Context, i int, b []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if i < 1 {
		return fmt.Errorf("segstore: data position must be >= 1, got %d", i)
	}
	if len(b) != v.shape.BlockSize {
		return fmt.Errorf("segstore: data block %d has %d bytes, want %d", i, len(b), v.shape.BlockSize)
	}
	return v.s.Put(refKey(store.DataRef(i)), b)
}

// PutParity implements store.Single.
func (v *Lattice) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.IsVirtual() {
		return fmt.Errorf("segstore: cannot store virtual edge %v", e)
	}
	if len(b) != v.shape.BlockSize {
		return fmt.Errorf("segstore: parity %v has %d bytes, want %d", e, len(b), v.shape.BlockSize)
	}
	return v.s.Put(refKey(store.ParityRef(e)), b)
}

// Missing implements store.Single: the expected set is data positions
// 1..Blocks plus every real out-edge of those positions
// (lattice.RealOutEdges), probed with ONE StatBatch — one lock
// acquisition and one reusable scratch buffer, never materializing
// block contents. Each candidate record is still read and CRC-verified,
// so a record corrupted at rest is reported for repair exactly like an
// absent one — Missing agrees with GetMany's availability view.
func (v *Lattice) Missing(ctx context.Context) (store.Missing, error) {
	if err := ctx.Err(); err != nil {
		return store.Missing{}, err
	}
	edges := v.lat.RealOutEdges(v.shape.Blocks)
	keys := make([]string, 0, v.shape.Blocks+len(edges))
	for i := 1; i <= v.shape.Blocks; i++ {
		keys = append(keys, refKey(store.DataRef(i)))
	}
	for _, e := range edges {
		keys = append(keys, refKey(store.ParityRef(e)))
	}
	sizes := v.s.StatBatch(keys)
	var m store.Missing
	for i := 1; i <= v.shape.Blocks; i++ {
		if sizes[i-1] != v.shape.BlockSize {
			m.Data = append(m.Data, i)
		}
	}
	for idx, e := range edges {
		if sizes[v.shape.Blocks+idx] != v.shape.BlockSize {
			m.Parities = append(m.Parities, e)
		}
	}
	sort.Slice(m.Parities, func(a, b int) bool {
		if m.Parities[a].Class != m.Parities[b].Class {
			return m.Parities[a].Class < m.Parities[b].Class
		}
		return m.Parities[a].Left < m.Parities[b].Left
	})
	return m, nil
}

// GetMany implements store.BlockStore natively: one Store batch (one
// lock acquisition) for the whole round. Entries for blocks that are
// absent, corrupt at rest or the wrong size are nil; virtual edges read
// as zero blocks.
func (v *Lattice) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keys := make([]string, len(refs))
	for i, r := range refs {
		keys[i] = refKey(r)
	}
	blocks := v.s.GetBatch(keys)
	for i, r := range refs {
		if r.Parity && r.Edge.IsVirtual() {
			blocks[i] = store.ZeroBlock(v.shape.BlockSize)
			continue
		}
		if blocks[i] != nil && len(blocks[i]) != v.shape.BlockSize {
			blocks[i] = nil
		}
	}
	return blocks, nil
}

// PutMany implements store.BlockStore natively: the whole batch is
// validated first, then applied as one Store batch — one lock
// acquisition and (with Options.Sync) one fsync.
func (v *Lattice) PutMany(ctx context.Context, blocks []store.Block) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	items := make([]store.KV, len(blocks))
	for i, b := range blocks {
		if b.Ref.Parity && b.Ref.Edge.IsVirtual() {
			return fmt.Errorf("segstore: cannot store virtual edge %v", b.Ref.Edge)
		}
		if !b.Ref.Parity && b.Ref.Index < 1 {
			return fmt.Errorf("segstore: data position must be >= 1, got %d", b.Ref.Index)
		}
		if len(b.Data) != v.shape.BlockSize {
			return fmt.Errorf("segstore: block %v has %d bytes, want %d", b.Ref, len(b.Data), v.shape.BlockSize)
		}
		items[i] = store.KV{Key: refKey(b.Ref), Data: b.Data}
	}
	return v.s.PutBatch(items)
}

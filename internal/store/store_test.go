package store

import (
	"context"
	"fmt"
	"testing"

	"aecodes/internal/lattice"
)

// fakeStore is a map-backed BlockStore of data blocks for the Flaky
// tests; it is written before the tests read it and never after.
type fakeStore struct {
	data map[int][]byte
}

func newFakeStore() *fakeStore { return &fakeStore{data: make(map[int][]byte)} }

func (f *fakeStore) GetData(ctx context.Context, i int) ([]byte, error) {
	b, ok := f.data[i]
	if !ok {
		return nil, fmt.Errorf("fake d%d: %w", i, ErrNotFound)
	}
	return b, nil
}

func (f *fakeStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	return nil, fmt.Errorf("fake %v: %w", e, ErrNotFound)
}

func (f *fakeStore) PutData(ctx context.Context, i int, b []byte) error {
	return fmt.Errorf("fake: read-only")
}

func (f *fakeStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	return fmt.Errorf("fake: read-only")
}

func (f *fakeStore) Missing(ctx context.Context) (Missing, error) { return Missing{}, nil }

func (f *fakeStore) GetMany(ctx context.Context, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i, r := range refs {
		if !r.Parity {
			out[i] = f.data[r.Index]
		}
	}
	return out, nil
}

func (f *fakeStore) PutMany(ctx context.Context, blocks []Block) error {
	return fmt.Errorf("fake: read-only")
}

func TestRefString(t *testing.T) {
	if got := DataRef(26).String(); got != "d26" {
		t.Errorf("DataRef(26) = %q", got)
	}
	e := lattice.Edge{Class: lattice.Horizontal, Left: 21, Right: 26}
	if got := ParityRef(e).String(); got != "p21,26(h)" {
		t.Errorf("ParityRef = %q", got)
	}
}

func TestMissingEmpty(t *testing.T) {
	if !(Missing{}).Empty() {
		t.Error("zero Missing not empty")
	}
	if (Missing{Data: []int{1}}).Empty() {
		t.Error("non-zero Missing reported empty")
	}
}

package tenant_test

import (
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// conformanceShape is the lattice geometry the tenant-wrapped views are
// exercised with.
var conformanceShape = segstore.Shape{
	Params:    lattice.Params{Alpha: 3, S: 2, P: 5},
	Blocks:    10,
	BlockSize: 48,
}

// latticeOver builds the ref-dialect view the repair engine speaks over
// one tenant's namespaced, quota-enforced slice of a shared node: a
// tenant.Store is a store.Keyed, so the durable lattice view runs over
// it unchanged.
func latticeOver(t *testing.T, h *tenant.Store) store.BlockStore {
	t.Helper()
	v, err := segstore.NewLattice(h, conformanceShape)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTenantWrappedMemStoreConformance runs the full BlockStore
// conformance suite over a tenant view of the in-memory transport store
// — with a sibling tenant's data interleaved in the same backing, so any
// namespace leak fails the suite.
func TestTenantWrappedMemStoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		Params:    conformanceShape.Params,
		Blocks:    conformanceShape.Blocks,
		BlockSize: conformanceShape.BlockSize,
		New: func(t *testing.T) store.BlockStore {
			reg, err := tenant.NewRegistry(transport.NewMemStore(), tenant.Config{
				Tenants: map[string]tenant.Quota{"suite": {MaxBytes: 1 << 20}},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Interference: a neighbour using the same caller-visible keys.
			other := openTenant(t, reg, "neighbour")
			if err := other.Put("d1", []byte("not-your-block")); err != nil {
				t.Fatal(err)
			}
			return latticeOver(t, openTenant(t, reg, "suite"))
		},
	})
}

// TestTenantWrappedSegstoreConformance is the durable variant: the
// conformance suite (including the reopen-durability leg) over a tenant
// view of the segment store. The reopen leg closes the segment files,
// reopens the directory and rebuilds a fresh registry — accounting and
// contents both come back from the log alone.
func TestTenantWrappedSegstoreConformance(t *testing.T) {
	dirs := map[store.BlockStore]string{}
	segs := map[store.BlockStore]*segstore.Store{}
	open := func(t *testing.T, dir string) store.BlockStore {
		s, err := segstore.Open(dir, segstore.Options{SegmentSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		reg, err := tenant.NewRegistry(s, tenant.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v := latticeOver(t, openTenant(t, reg, "suite"))
		dirs[v] = dir
		segs[v] = s
		return v
	}
	storetest.Run(t, storetest.Harness{
		Params:    conformanceShape.Params,
		Blocks:    conformanceShape.Blocks,
		BlockSize: conformanceShape.BlockSize,
		New: func(t *testing.T) store.BlockStore {
			return open(t, t.TempDir())
		},
		Reopen: func(t *testing.T, s store.BlockStore) store.BlockStore {
			if err := segs[s].Close(); err != nil {
				t.Fatal(err)
			}
			return open(t, dirs[s])
		},
	})
}

// TestTenantStoreKeyedContract runs the store.Keyed conformance suite
// over a named tenant's and the anonymous tenant's view of each backing —
// a transport.Server serves these views exactly as it serves the backings
// themselves. A neighbour holds the suite's keys too, so a namespace leak
// fails it.
func TestTenantStoreKeyedContract(t *testing.T) {
	backings := map[string]func(t *testing.T) tenant.Backing{
		"MemStore": func(*testing.T) tenant.Backing { return transport.NewMemStore() },
		"Segstore": func(t *testing.T) tenant.Backing {
			s, err := segstore.Open(t.TempDir(), segstore.Options{SegmentSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
	for name, backing := range backings {
		for _, id := range []string{"suite", tenant.Anonymous} {
			t.Run(name+"/tenant="+id, func(t *testing.T) {
				storetest.RunKeyed(t, func(t *testing.T) store.Keyed {
					reg, err := tenant.NewRegistry(backing(t), tenant.Config{})
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []string{"k", "dup", "a", "full"} {
						if err := openTenant(t, reg, "neighbour").Put(k, []byte("not-your-block")); err != nil {
							t.Fatal(err)
						}
					}
					return openTenant(t, reg, id)
				})
			})
		}
	}
}

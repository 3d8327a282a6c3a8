package cooperative

import (
	"math/rand"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// BenchmarkRepairPush is the in-place half of a repair round's commit on
// a real node: 512 parities of 64 KiB through netStore.XorPutMany to a
// loopback transport.Server over a tenant's view of a segstore, over two
// pooled connections as a fleet broker dials them. The node reads each
// companion, XORs and appends the result; the same 512 parities are
// rewritten every op, and the log is compacted outside the timer every
// 8 ops so the benchmark's disk use stays bounded.
func BenchmarkRepairPush(b *testing.B) {
	const (
		count     = 512
		blockSize = 64 << 10
	)
	seg, err := segstore.Open(b.TempDir(), segstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { seg.Close() })
	reg, err := tenant.NewRegistry(seg, tenant.Config{})
	if err != nil {
		b.Fatal(err)
	}
	view, err := reg.Open("alice")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := transport.NewServer(view)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	pool, err := transport.DialPool(addr, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	br, err := NewBroker("alice", testParams, blockSize, []NodeStore{pool})
	if err != nil {
		b.Fatal(err)
	}

	// Item k rebuilds the horizontal out-edge of position k+1 from the
	// right-handed one, which the node holds.
	lat := br.rep.Lattice()
	rng := rand.New(rand.NewSource(53))
	items := make([]store.XorPut, count)
	companions := make([]store.KV, count)
	for k := range items {
		dst, err := lat.OutEdge(lattice.Horizontal, k+1)
		if err != nil {
			b.Fatal(err)
		}
		src, err := lat.OutEdge(lattice.RightHanded, k+1)
		if err != nil {
			b.Fatal(err)
		}
		data, companion := make([]byte, blockSize), make([]byte, blockSize)
		rng.Read(data)
		rng.Read(companion)
		items[k] = store.XorPut{Dst: store.ParityRef(dst), Src: store.ParityRef(src), Data: data}
		companions[k] = store.KV{Key: br.parityKey(src), Data: companion}
	}
	if err := pool.PutMany(bg, companions); err != nil {
		b.Fatal(err)
	}
	ns := br.netStore()
	b.SetBytes(count * blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%8 == 0 {
			b.StopTimer()
			if err := seg.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		applied, err := ns.XorPutMany(bg, items)
		if err != nil {
			b.Fatal(err)
		}
		for k, ok := range applied {
			if !ok {
				b.Fatalf("item %d not rebuilt on the node", k)
			}
		}
	}
}

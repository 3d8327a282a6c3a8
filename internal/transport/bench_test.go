package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aecodes/internal/obs"
)

// Loopback benchmarks: a server over a store.Mem, a client over real
// TCP, and one frame per batch of 128 blocks of 64 KiB — the shapes a
// repair round's commit (PutMany), prefetch (GetMany) and enumeration
// (StatMany) travel in. p99-ns and p999-ns are per-batch tails from an
// obs histogram, the buckets production metrics use.

const batchBlocks, batchBlockSize = 128, 64 << 10

// randomBatch returns batchBlocks random blocks of batchBlockSize and
// their keys.
func randomBatch() ([]KV, []string) {
	rng := rand.New(rand.NewSource(11))
	items := make([]KV, batchBlocks)
	keys := make([]string, batchBlocks)
	for i := range items {
		data := make([]byte, batchBlockSize)
		rng.Read(data)
		keys[i] = fmt.Sprintf("block-%04d", i)
		items[i] = KV{Key: keys[i], Data: data}
	}
	return items, keys
}

// timeBatches runs op b.N times and reports the tails of its latency.
func timeBatches(b *testing.B, op func() error) {
	lat := obs.NewHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := op(); err != nil {
			b.Fatal(err)
		}
		lat.Record(time.Since(start).Nanoseconds())
	}
	b.StopTimer()
	snap := lat.Snapshot()
	b.ReportMetric(snap.P99(), "p99-ns")
	b.ReportMetric(snap.P999(), "p999-ns")
}

func BenchmarkPutMany(b *testing.B) {
	_, addr := startServer(b)
	c := dial(b, addr)
	items, _ := randomBatch()
	b.SetBytes(batchBlocks * batchBlockSize)
	timeBatches(b, func() error { return c.PutMany(bg, items) })
}

func BenchmarkGetMany(b *testing.B) {
	_, addr := startServer(b)
	c := dial(b, addr)
	items, keys := randomBatch()
	if err := c.PutMany(bg, items); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(batchBlocks * batchBlockSize)
	timeBatches(b, func() error {
		blocks, err := c.GetMany(bg, keys)
		if err == nil && (len(blocks) != len(keys) || blocks[0] == nil) {
			err = errors.New("GetMany returned a damaged batch")
		}
		return err
	})
}

// BenchmarkStatMany moves about a byte per key either way, so it reports
// ns/op and tails, no MB/s.
func BenchmarkStatMany(b *testing.B) {
	_, addr := startServer(b)
	c := dial(b, addr)
	items, keys := randomBatch()
	if err := c.PutMany(bg, items); err != nil {
		b.Fatal(err)
	}
	timeBatches(b, func() error {
		flags, err := c.StatMany(bg, keys)
		if err == nil && (len(flags) != len(keys) || !flags[0]) {
			err = errors.New("StatMany returned a damaged batch")
		}
		return err
	})
}

// TestCopiedBytesPerBlock pins the copy budget of the batch round trip,
// read from hotpath/copied_bytes around each call: PutMany into a
// server over a store.Mem copies each block once (the Mem's copy under
// the retain contract), and GetMany copies none (the server lends the
// Mem's slices to the frame it writes).
func TestCopiedBytesPerBlock(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	items, keys := randomBatch()
	copied := obs.Default.Scope("hotpath").Counter("copied_bytes")

	before := copied.Value()
	if err := c.PutMany(bg, items); err != nil {
		t.Fatal(err)
	}
	if got := copied.Value() - before; got != batchBlocks*batchBlockSize {
		t.Errorf("PutMany copied %d bytes, want one block per block (%d)", got, batchBlocks*batchBlockSize)
	}

	before = copied.Value()
	if _, err := c.GetMany(bg, keys); err != nil {
		t.Fatal(err)
	}
	if got := copied.Value() - before; got != 0 {
		t.Errorf("GetMany copied %d bytes, want 0", got)
	}
}

// benchmarkTransport measures moving 64 blocks of 64 KiB to a storage node
// one frame per block vs one batched frame.
func benchmarkTransport(b *testing.B, batched bool) {
	_, addr := startServer(b)
	c := dial(b, addr)

	const blocks, blockSize = 64, 64 << 10
	items := make([]KV, blocks)
	keys := make([]string, blocks)
	payload := make([]byte, blockSize)
	rand.New(rand.NewSource(3)).Read(payload)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("blk%04d", i), Data: payload}
		keys[i] = items[i].Key
	}
	b.SetBytes(int64(blocks * blockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batched {
			if err := c.PutMany(bg, items); err != nil {
				b.Fatal(err)
			}
			if _, err := c.GetMany(bg, keys); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, it := range items {
				if err := c.Put(bg, it.Key, it.Data); err != nil {
					b.Fatal(err)
				}
			}
			for _, k := range keys {
				if _, err := c.Get(bg, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTransportPerBlock(b *testing.B) { benchmarkTransport(b, false) }
func BenchmarkTransportBatched(b *testing.B)  { benchmarkTransport(b, true) }

package transport

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
	"aecodes/internal/tenant"
)

// TestMemStoreKeyedContract runs the store.Keyed conformance suite over
// the in-memory store.
func TestMemStoreKeyedContract(t *testing.T) {
	storetest.RunKeyed(t, func(*testing.T) store.Keyed { return NewMemStore() })
}

// countingStore wraps MemStore and counts the store calls the server
// makes.
type countingStore struct {
	*MemStore
	singles                              atomic.Int64 // Get + Put + Del
	readBatches, putBatches, statBatches atomic.Int64
}

func (c *countingStore) Get(key string) ([]byte, bool) {
	c.singles.Add(1)
	return c.MemStore.Get(key)
}

func (c *countingStore) Put(key string, data []byte) error {
	c.singles.Add(1)
	return c.MemStore.Put(key, data)
}

func (c *countingStore) Del(key string) {
	c.singles.Add(1)
	c.MemStore.Del(key)
}

func (c *countingStore) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	c.readBatches.Add(1)
	return c.MemStore.ReadBatch(keys, fn)
}

func (c *countingStore) PutBatch(items []store.KV) error {
	c.putBatches.Add(1)
	return c.MemStore.PutBatch(items)
}

func (c *countingStore) StatBatch(keys []string) []int {
	c.statBatches.Add(1)
	return c.MemStore.StatBatch(keys)
}

// TestServerUsesNativeBatchStore pins that a batch frame is applied with
// ONE store call — the property that gives a durable backend one lock
// acquisition and one fsync per frame — and never with single-key calls,
// both when the server serves the store itself and when it serves a
// tenant's view of it.
func TestServerUsesNativeBatchStore(t *testing.T) {
	views := map[string]func(t *testing.T, cs *countingStore) store.Keyed{
		"bare": func(t *testing.T, cs *countingStore) store.Keyed { return cs },
		"tenant view": func(t *testing.T, cs *countingStore) store.Keyed {
			reg, err := tenant.NewRegistry(cs, tenant.Config{})
			if err != nil {
				t.Fatal(err)
			}
			view, err := reg.Open("alice")
			if err != nil {
				t.Fatal(err)
			}
			return view
		},
	}
	for name, view := range views {
		t.Run(name, func(t *testing.T) {
			cs := &countingStore{MemStore: NewMemStore()}
			c := dial(t, startServerOn(t, view(t, cs)))
			ctx := context.Background()

			items := []KV{{Key: "a", Data: []byte("aa")}, {Key: "b", Data: []byte("bb")}, {Key: "c"}}
			if err := c.PutMany(ctx, items); err != nil {
				t.Fatal(err)
			}
			if _, err := c.GetMany(ctx, []string{"a", "missing", "c", "b"}); err != nil {
				t.Fatal(err)
			}
			held, err := c.StatMany(ctx, []string{"a", "missing", "c"})
			if err != nil {
				t.Fatal(err)
			}
			if !held[0] || held[1] || !held[2] {
				t.Errorf("StatMany = %v, want [true false true]", held)
			}
			if p, g, s := cs.putBatches.Load(), cs.readBatches.Load(), cs.statBatches.Load(); p != 1 || g != 1 || s != 1 {
				t.Errorf("one frame of each kind made %d PutBatch, %d ReadBatch, %d StatBatch calls, want 1 each", p, g, s)
			}
			if got := cs.singles.Load(); got != 0 {
				t.Errorf("batch frames made %d single-key store calls", got)
			}

			// Single ops still take the single-op path.
			if _, err := c.Get(ctx, "a"); err != nil {
				t.Fatal(err)
			}
			if got := cs.singles.Load(); got != 1 {
				t.Errorf("single Get made %d single-key store calls, want 1", got)
			}
		})
	}
}

// discardStore consumes writes by dropping them, so the only allocation a
// write frame can cause is the server's own receive buffer.
type discardStore struct{ *MemStore }

func (discardStore) Put(string, []byte) error  { return nil }
func (discardStore) PutBatch([]store.KV) error { return nil }

// TestServerRecyclesWriteFrames pins that the receive buffer rejoins the
// frame pool after every write op, whatever the store: 256 frames of each
// kind must not allocate 256 receive buffers. The bound is loose because
// sync.Pool sheds a quarter of its puts under the race detector, on the
// server's buffer and on the client's OpPut frame alike.
func TestServerRecyclesWriteFrames(t *testing.T) {
	c := dial(t, startServerOn(t, discardStore{NewMemStore()}))
	ctx := context.Background()
	block := make([]byte, 256<<10-64) // frame and payload share the 256 KiB bucket
	const frames = 256
	for op, write := range map[string]func() error{
		"OpPut":     func() error { return c.Put(ctx, "k", block) },
		"OpPutMany": func() error { return c.PutMany(ctx, []KV{{Key: "k", Data: block}}) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			if err := write(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > frames*3/4*uint64(len(block)) {
			t.Errorf("%d %s frames allocated %d MiB: receive buffers are not being recycled", frames, op, got>>20)
		}
	}
}

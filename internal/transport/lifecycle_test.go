package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/store"
)

// startServer spins up a server over st and returns its address; cleanup
// closes it.
func startServerOn(t *testing.T, st store.Keyed) string {
	t.Helper()
	srv, err := NewServer(st)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPoolEvictsAndRedialsPoisonedConn is the lifecycle traffic-shape
// test: a poisoned connection is evicted from rotation and redialed in
// the background while a whole round of operations completes on the
// surviving connections.
func TestPoolEvictsAndRedialsPoisonedConn(t *testing.T) {
	addr := startServerOn(t, store.NewMem())
	p, err := DialPoolOptions(addr, 3, PoolOptions{RedialBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()

	if err := p.Put(ctx, "seed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := p.Live(); got != 3 {
		t.Fatalf("healthy pool has %d live conns, want 3", got)
	}

	// Poison one connection mid-life: sever its socket out from under it,
	// exactly what a transient network blip does.
	p.slots[0].mu.Lock()
	p.slots[0].pc.conn.Close()
	p.slots[0].mu.Unlock()

	// A full "round" of batched and single operations must complete even
	// though a third of the pool just died: picks skip the corpse, and any
	// op that raced onto it is retried on a survivor.
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("round/%d", i)
			if err := p.PutMany(ctx, []KV{{Key: key, Data: []byte("block")}}); err != nil {
				errs[i] = err
				return
			}
			blocks, err := p.GetMany(ctx, []string{key, "seed"})
			if err != nil {
				errs[i] = err
				return
			}
			if string(blocks[0]) != "block" || string(blocks[1]) != "v" {
				errs[i] = fmt.Errorf("wrong round content: %q %q", blocks[0], blocks[1])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("round op %d failed despite surviving conns: %v", i, err)
		}
	}

	// The evicted slot must come back: capacity degrades, it is not lost.
	waitFor(t, 2*time.Second, func() bool { return p.Live() == 3 }, "poisoned conn to be redialed")
	if err := p.Put(ctx, "after", []byte("redialed")); err != nil {
		t.Fatalf("Put after redial: %v", err)
	}
}

// stallStore is a store.Keyed whose Get blocks on stalled keys until
// release is closed — a hung storage node.
type stallStore struct {
	*store.Mem
	prefix  string
	release chan struct{}
}

func (s *stallStore) Get(key string) ([]byte, bool) {
	if strings.HasPrefix(key, s.prefix) {
		<-s.release
	}
	return s.Mem.Get(key)
}

// ReadBatch keeps the stall visible on the batch path too: without this
// override the server would serve OpGetMany via the promoted
// Mem.ReadBatch and bypass the hung-node simulation.
func (s *stallStore) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	for _, key := range keys {
		if strings.HasPrefix(key, s.prefix) {
			<-s.release
			break
		}
	}
	return s.Mem.ReadBatch(keys, fn)
}

// TestPoolResponseTimeoutFailsHungRequest pins the timeout wheel: a node
// that never answers fails the request after ResponseTimeout instead of
// stalling forever, poisoning only the connections the hung requests
// rode; the pool heals afterwards. A pool of one is the single-connection
// client: with its only connection poisoned, the next call fails with
// store.ErrUnavailable until the redial lands — it never hangs and never
// reads a stale response.
func TestPoolResponseTimeoutFailsHungRequest(t *testing.T) {
	for _, conns := range []int{1, 2} {
		t.Run(fmt.Sprintf("conns=%d", conns), func(t *testing.T) {
			st := &stallStore{Mem: store.NewMem(), prefix: "stall/", release: make(chan struct{})}
			defer close(st.release) // let the server's conn goroutines exit
			p, err := DialPoolOptions(startServerOn(t, st), conns, PoolOptions{
				ResponseTimeout: 50 * time.Millisecond,
				RedialBackoff:   2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ctx := context.Background()

			if err := p.Put(ctx, "ok", []byte("fine")); err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			_, err = p.Get(ctx, "stall/1")
			if !errors.Is(err, errResponseTimeout) {
				t.Fatalf("Get on a hung node = %v, want response-timeout fault", err)
			}
			// Every retry can burn one ResponseTimeout; with the pool's
			// conns plus one redial attempt the whole call stays bounded.
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("hung request took %v, want bounded by the timeout wheel", elapsed)
			}
			if got, err := p.Get(ctx, "ok"); err == nil && string(got) != "fine" {
				t.Fatalf("Get right after the timeout returned %q", got)
			} else if err != nil && !errors.Is(err, store.ErrUnavailable) {
				t.Fatalf("Get right after the timeout = %v, want store.ErrUnavailable or success", err)
			}

			// Healthy requests work again once redial replaces the poisoned conns.
			waitFor(t, 2*time.Second, func() bool { return p.Live() >= 1 }, "a conn to be redialed")
			got, err := p.Get(ctx, "ok")
			if err != nil || string(got) != "fine" {
				t.Fatalf("Get after timeout recovery = %q, %v", got, err)
			}
		})
	}
}

// TestPoolAllConnsDown pins the degraded floor: with every connection
// poisoned and the node unreachable, operations fail fast wrapping
// store.ErrUnavailable, and Close still shuts the redial loops down
// promptly.
func TestPoolAllConnsDown(t *testing.T) {
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := DialPoolOptions(addr, 2, PoolOptions{RedialBackoff: 5 * time.Millisecond})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if err := p.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Close() // node gone: every conn poisons, redials cannot land

	waitFor(t, 2*time.Second, func() bool { return p.Live() == 0 }, "all conns to be poisoned")
	_, err = p.Get(context.Background(), "k")
	if !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("Get with node down = %v, want store.ErrUnavailable", err)
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung waiting for redial loops")
	}
}

// TestPoolContextErrorsAreNotRetried pins that withConn never retries a
// context failure: a cancelled caller gets its context error back at
// once.
func TestPoolContextErrorsAreNotRetried(t *testing.T) {
	addr := startServerOn(t, store.NewMem())
	p, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Get(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestPipeConnTimeoutWheelRearm pins that the wheel survives interleaved
// deadlines: a long-deadline request issued before a short-deadline one
// must not mask the short one's expiry.
func TestPipeConnTimeoutWheelRearm(t *testing.T) {
	st := &stallStore{Mem: store.NewMem(), prefix: "stall/", release: make(chan struct{})}
	defer close(st.release)
	addr := startServerOn(t, st)
	p, err := DialPoolOptions(addr, 1, PoolOptions{RedialBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	longCtx, cancelLong := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLong()
	shortCtx, cancelShort := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancelShort()

	var wg sync.WaitGroup
	wg.Add(2)
	errLong := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := p.Get(longCtx, "stall/long")
		errLong <- err
	}()
	time.Sleep(10 * time.Millisecond) // ensure the long request is in flight first
	var shortErr error
	start := time.Now()
	go func() {
		defer wg.Done()
		_, shortErr = p.Get(shortCtx, "stall/short")
	}()
	wg.Wait()
	if shortErr == nil {
		t.Fatal("short-deadline request succeeded on a hung node")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("short-deadline request took %v, wheel failed to re-arm", elapsed)
	}
	if err := <-errLong; err == nil {
		t.Fatal("long request survived a poisoned connection")
	}
}

// TestServerIdleTimeoutReapsAndPoolHeals pins the server-side half of the
// lifecycle: a connection that sends nothing for the idle timeout is
// dropped by the server, and a pool client that comes back simply rides
// its eviction + redial and keeps working.
func TestServerIdleTimeoutReapsAndPoolHeals(t *testing.T) {
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIdleTimeout(30 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	p, err := DialPoolOptions(addr, 2, PoolOptions{RedialBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	if err := p.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // both conns idle out server-side

	// The pool notices the reaped conns (poisoned by EOF), evicts,
	// retries and redials; the caller just sees working operations.
	waitFor(t, 2*time.Second, func() bool {
		got, err := p.Get(ctx, "k")
		return err == nil && string(got) == "v"
	}, "pool to heal after server-side idle reap")
}

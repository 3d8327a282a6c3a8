package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/store"
)

// startServer returns a ready server, its address, and a cleanup-registered
// client factory.
func startServer(t testing.TB) (*store.Mem, string) {
	t.Helper()
	st := store.NewMem()
	srv, err := NewServer(st)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return st, addr
}

// dial connects a pool of one: a single connection, requests in order.
func dial(t testing.TB, addr string) *PoolClient {
	t.Helper()
	c, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetDelRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	data := []byte("entangled parity block p21,26")
	if err := c.Put(bg, "user/p:h:21:26", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(bg, "user/p:h:21:26")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Get = %q, want %q", got, data)
	}
	if err := c.Del(bg, "user/p:h:21:26"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "user/p:h:21:26"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Del = %v, want ErrNotFound", err)
	}
}

func TestGetMissing(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.Get(bg, "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
}

func TestEmptyPayloadAndKeyEdgeCases(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Put(bg, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(bg, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty block came back with %d bytes", len(got))
	}
	// Oversized key rejected client-side.
	if err := c.Put(bg, strings.Repeat("k", MaxKeyLen+1), nil); err == nil {
		t.Error("accepted oversized key")
	}
}

func TestLargeBlock(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	big := bytes.Repeat([]byte{0xA5}, 1<<20)
	if err := c.Put(bg, "big", big); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(bg, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("1 MiB block corrupted in transit")
	}
}

func TestManySequentialRequests(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := c.Put(bg, key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		got, err := c.Get(bg, fmt.Sprintf("k%d", i))
		if err != nil || got[0] != byte(i) {
			t.Fatalf("k%d = %v, %v", i, got, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	store, addr := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPool(addr, 1)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				if err := c.Put(bg, key, []byte(key)); err != nil {
					errs <- err
					return
				}
				got, err := c.Get(bg, key)
				if err != nil || string(got) != key {
					errs <- fmt.Errorf("round trip %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if store.Len() != 400 {
		t.Errorf("store holds %d blocks, want 400", store.Len())
	}
}

func TestServerCloseStopsService(t *testing.T) {
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(bg, "k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "k2", []byte{2}); err == nil {
		t.Error("Put succeeded after server close")
	}
	if _, err := DialPool(addr, 1); err == nil {
		t.Error("DialPool succeeded after server close")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("NewServer accepted nil store")
	}
}

// slowStore delays Gets so a client deadline can expire mid-exchange.
type slowStore struct {
	*store.Mem
	delay time.Duration
}

func (s *slowStore) Get(key string) ([]byte, bool) {
	time.Sleep(s.delay)
	return s.Mem.Get(key)
}

// TestLateResponseNeverAttributedToNextRequest pins the desynchronization
// fix on a pool of one: once a round-trip dies on a context deadline, the
// connection it rode is torn down, so the late response can never be read
// as the next request's. Until the redial lands the next call fails with
// store.ErrUnavailable; it never returns the stale payload.
func TestLateResponseNeverAttributedToNextRequest(t *testing.T) {
	st := &slowStore{Mem: store.NewMem(), delay: 300 * time.Millisecond}
	st.Put("a", []byte("AAAA"))
	st.Put("b", []byte("BBBB"))
	c, err := DialPoolOptions(startServerOn(t, st), 1, PoolOptions{RedialBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	if _, err := c.Get(ctx, "a"); err == nil {
		t.Fatal("Get survived a 30ms deadline against a 300ms server")
	}
	// Without poisoning, this would read request a's late response and
	// return AAAA for key b.
	got, err := c.Get(bg, "b")
	if err == nil && string(got) != "BBBB" {
		t.Fatalf("Get(b) after the deadline returned %q: a stale response was attributed to it", got)
	}
	if err != nil && !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("Get(b) after the deadline = %v, want store.ErrUnavailable or success on a redialed connection", err)
	}
	waitFor(t, 2*time.Second, func() bool { return c.Live() == 1 }, "the poisoned conn to be redialed")
	if got, err := c.Get(bg, "b"); err != nil || string(got) != "BBBB" {
		t.Fatalf("Get(b) on the redialed connection = %q, %v", got, err)
	}
}

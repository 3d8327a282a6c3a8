package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/store"
)

// fakeNode is a hand-driven node for the client's reader tests: it answers
// each request it reads with "fresh" while answer says so, and withholds the
// response otherwise. It accepts at most accept connections (0: any number)
// and then closes its listener, so redials fail.
type fakeNode struct {
	addr   string
	ln     net.Listener
	answer func(seen int64) bool
	seen   atomic.Int64 // requests read, over every connection

	mu    sync.Mutex
	conns map[string]net.Conn // server side, by the client's address
	wg    sync.WaitGroup
	once  sync.Once
}

func startFakeNode(t *testing.T, accept int, answer func(seen int64) bool) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &fakeNode{addr: ln.Addr().String(), ln: ln, answer: answer, conns: map[string]net.Conn{}}
	n.wg.Add(1)
	go n.acceptLoop(accept)
	t.Cleanup(n.close)
	return n
}

func (n *fakeNode) acceptLoop(accept int) {
	defer n.wg.Done()
	for i := 0; accept == 0 || i < accept; i++ {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		n.conns[conn.RemoteAddr().String()] = conn
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serve(conn)
	}
	n.ln.Close()
}

func (n *fakeNode) serve(conn net.Conn) {
	defer n.wg.Done()
	for {
		if _, _, _, err := readRequest(conn); err != nil {
			return
		}
		if n.answer(n.seen.Add(1)) {
			if err := writeResponse(conn, StatusOK, []byte("fresh")); err != nil {
				return
			}
		}
	}
}

// conn returns the server side of the client connection pc.
func (n *fakeNode) conn(t *testing.T, pc *pipeConn) net.Conn {
	t.Helper()
	var c net.Conn
	waitFor(t, 2*time.Second, func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		c = n.conns[pc.conn.LocalAddr().String()]
		return c != nil
	}, "the node to accept the connection")
	return c
}

func (n *fakeNode) close() {
	n.once.Do(func() {
		n.ln.Close()
		n.mu.Lock()
		for _, c := range n.conns {
			c.Close()
		}
		n.mu.Unlock()
		n.wg.Wait()
	})
}

// pipeConnGoroutines counts the goroutines with a pipeConn method on their
// stack.
func pipeConnGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*pipeConn)")) {
			n++
		}
	}
	return n
}

// TestPoolStartsNoGoroutinePerConn pins that callers read their own
// responses: once every connection of a pool has carried an exchange,
// no goroutine is parked on any of them.
func TestPoolStartsNoGoroutinePerConn(t *testing.T) {
	_, addr := startServer(t)
	p, err := DialPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := range 8 { // round-robin: two exchanges per connection
		key := fmt.Sprintf("k%d", i)
		if err := p.Put(bg, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if got, err := p.Get(bg, key); err != nil || string(got) != key {
			t.Fatalf("Get(%s) = %q, %v", key, got, err)
		}
	}
	if n := pipeConnGoroutines(); n != 0 {
		t.Fatalf("%d goroutines parked in pipeConn after the exchanges, want 0", n)
	}
}

// pattern returns n bytes of seed repeated: distinct per key.
func pattern(seed string, n int) []byte {
	return bytes.Repeat([]byte(seed), n/len(seed)+1)[:n]
}

// TestPipelinedCallersReadTheirOwnResponses drives the reader hand-off:
// sixteen goroutines pipeline batch calls over one connection, each
// with payloads no other caller sends, and each checks that every
// response it got is its own.
func TestPipelinedCallersReadTheirOwnResponses(t *testing.T) {
	_, addr := startServer(t)
	p := dial(t, addr)
	const callers, rounds = 16, 40
	errs := make(chan error, callers)
	for g := range callers {
		go func() { errs <- pipelineRounds(p, g, rounds) }()
	}
	hang := time.After(30 * time.Second)
	for range callers {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-hang:
			t.Fatal("pipelined callers hung")
		}
	}
}

func pipelineRounds(p *PoolClient, g, rounds int) error {
	for r := range rounds {
		a, b := fmt.Sprintf("g%d-r%d-a", g, r), fmt.Sprintf("g%d-r%d-b", g, r)
		da, db := pattern(a, 64+g), pattern(b, 64+g)
		if err := p.PutMany(bg, []KV{{Key: a, Data: da}, {Key: b, Data: db}}); err != nil {
			return fmt.Errorf("caller %d PutMany: %w", g, err)
		}
		got, err := p.GetMany(bg, []string{b, a})
		if err != nil {
			return fmt.Errorf("caller %d GetMany: %w", g, err)
		}
		if len(got) != 2 || !bytes.Equal(got[0], db) || !bytes.Equal(got[1], da) {
			return fmt.Errorf("caller %d round %d: GetMany answered %q, not its own blocks", g, r, got)
		}
		x, err := p.XorMany(bg, []string{a, b})
		if err != nil {
			return fmt.Errorf("caller %d XorMany: %w", g, err)
		}
		want := make([]byte, len(da))
		for i := range want {
			want[i] = da[i] ^ db[i]
		}
		if len(x) != 1 || !bytes.Equal(x[0], want) {
			return fmt.Errorf("caller %d round %d: XorMany answered %q, not its own pair", g, r, x)
		}
	}
	return nil
}

// TestResponseTimeoutFailsEveryPipelinedCaller is the hand-off under a
// fault: sixteen callers pipeline Gets over one connection until the node
// withholds a response mid-stream. The response deadline must fail every
// caller then pending with the timeout, and no caller may hang or leave a
// goroutine behind.
func TestResponseTimeoutFailsEveryPipelinedCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	const answered = 40
	node := startFakeNode(t, 1, func(seen int64) bool { return seen <= answered })
	p, err := DialPoolOptions(node.addr, 1, PoolOptions{ResponseTimeout: 300 * time.Millisecond, RedialBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	errs := make(chan error, callers)
	for g := range callers {
		go func() {
			for {
				got, err := p.Get(bg, fmt.Sprintf("g%d", g))
				if err != nil {
					errs <- err
					return
				}
				if string(got) != "fresh" {
					errs <- fmt.Errorf("caller %d read %q", g, got)
					return
				}
			}
		}()
	}
	hang := time.After(10 * time.Second)
	timedOut := 0
	for range callers {
		select {
		case err := <-errs:
			if !errors.Is(err, store.ErrUnavailable) {
				t.Errorf("caller failed with %v, want store.ErrUnavailable", err)
			}
			if errors.Is(err, errResponseTimeout) {
				timedOut++
			}
		case <-hang:
			t.Fatal("a caller hung past the response deadline")
		}
	}
	if withheld := int(node.seen.Load()) - answered; withheld < 1 || timedOut < withheld {
		t.Errorf("%d callers failed with the timeout, %d responses were withheld", timedOut, withheld)
	}
	p.Close()
	node.close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the node started", runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPickPastTwoToThe31 pins pick's round-robin past 2³¹ picks, where an
// int conversion of the counter turns negative on 32-bit platforms.
func TestPickPastTwoToThe31(t *testing.T) {
	_, addr := startServer(t)
	p, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.next.Store(1 << 31)
	var got [4]*pipeConn
	for i := range got {
		if got[i], err = p.pick(); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] == got[1] || got[0] != got[2] || got[1] != got[3] {
		t.Fatal("pick does not alternate between the two connections")
	}
}

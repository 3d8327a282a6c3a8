//go:build unix

package transport

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestIdleConnFaultPoisonsItAtPick covers what no reader watches: a node
// that sends a frame on an idle connection unprompted, or closes it. The
// next pick that lands on it must poison it, and the request must be
// answered on the other connection — never with the stray frame.
func TestIdleConnFaultPoisonsItAtPick(t *testing.T) {
	for _, tc := range []struct {
		name string
		act  func(net.Conn) error
		want error
	}{
		{"stray frame", func(c net.Conn) error { return writeResponse(c, StatusOK, []byte("stray")) }, errUnsolicited},
		{"closed by node", func(c net.Conn) error { return c.Close() }, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := startFakeNode(t, 0, func(int64) bool { return true })
			p, err := DialPoolOptions(node.addr, 2, PoolOptions{RedialBackoff: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			idle := p.slots[1].pc
			if err := tc.act(node.conn(t, idle)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool {
				idle.mu.Lock()
				defer idle.mu.Unlock()
				return idle.probe.check() != nil
			}, "the client socket to see the node's move")

			poisoned := obsPoolPoisoned.Value()
			p.next.Store(0) // the next pick tries slot 1 first
			if got, err := p.Get(bg, "k"); err != nil || string(got) != "fresh" {
				t.Fatalf("Get = %q, %v; want the other connection's answer", got, err)
			}
			idle.mu.Lock()
			fault := idle.err
			idle.mu.Unlock()
			if !errors.Is(fault, tc.want) || !errors.Is(fault, errConnFault) {
				t.Fatalf("idle connection fault = %v, want a connection fault wrapping %v", fault, tc.want)
			}
			if got := obsPoolPoisoned.Value() - poisoned; got != 1 {
				t.Fatalf("pool.poisoned moved by %d, want 1", got)
			}
		})
	}
}

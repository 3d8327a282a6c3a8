//go:build !unix

package transport

import "net"

// idleProbe is a no-op where the socket cannot be peeked at through
// syscall.RawConn: an idle connection reports only its sticky error, and a
// node that closed it is found by the next request's read instead.
type idleProbe struct{}

func newIdleProbe(net.Conn) *idleProbe { return nil }

func (*idleProbe) check() error { return nil }

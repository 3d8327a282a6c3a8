//go:build unix

package transport

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// errUnsolicited reports bytes a node sent on a connection with no request
// pending: whatever they are, they would answer the next request wrongly.
var errUnsolicited = errors.New("transport: unsolicited response")

// idleProbe peeks at a socket nobody is reading, without blocking and
// without consuming a byte (recvfrom with MSG_PEEK|MSG_DONTWAIT). It is
// built once per connection, so a probe allocates nothing; its fields are
// guarded by the owning pipeConn's mu.
type idleProbe struct {
	raw  syscall.RawConn
	peek func(fd uintptr) bool
	n    int
	err  error
	buf  [1]byte
}

// newIdleProbe returns nil for a connection without a file descriptor;
// check then reports it healthy.
func newIdleProbe(conn net.Conn) *idleProbe {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &idleProbe{raw: raw}
	p.peek = func(fd uintptr) bool {
		p.n, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	}
	return p
}

// check returns nil while the socket is open and silent, io.EOF when the
// peer has closed it, errUnsolicited when a byte is waiting, and the
// socket's error otherwise.
func (p *idleProbe) check() error {
	if p == nil {
		return nil
	}
	if err := p.raw.Read(p.peek); err != nil {
		return err
	}
	switch {
	case p.err == syscall.EAGAIN || p.err == syscall.EWOULDBLOCK || p.err == syscall.EINTR:
		return nil
	case p.err != nil:
		return p.err
	case p.n == 0:
		return io.EOF
	}
	return errUnsolicited
}

// PoolClient: a self-healing connection pool with pipelined
// request/response matching.
//
// The wire protocol answers requests in order on each connection, so a
// connection can carry many requests in flight: a writer appends a pending
// slot and sends the frame under one lock, and a per-connection reader
// goroutine matches each arriving response to the oldest pending slot.
// Concurrent callers therefore overlap their round-trips instead of
// queueing behind a single in-flight request, and the pool spreads load
// over several TCP connections on top.
//
// Connection lifecycle: any I/O failure or response timeout poisons the
// connection it happened on (the request/response pairing is lost), but
// poisons only that connection. The pool detects poisoned connections at
// pick time, evicts them from rotation, and redials them in the
// background with jittered exponential backoff; operations that died with
// a poisoned connection are retried once per surviving connection. A
// transient node blip therefore degrades pool capacity instead of
// permanently disabling the client.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aecodes/internal/store"
)

// PoolOptions tunes a PoolClient's request deadlines and reconnect
// policy. The zero value means: no default response timeout, 50ms initial
// redial backoff, 5s backoff cap.
type PoolOptions struct {
	// ResponseTimeout is the per-request response deadline applied when
	// the request context carries none: a response not received within it
	// fails the request and poisons that connection, so a hung node costs
	// one connection instead of stalling the caller forever. Zero means
	// requests without a context deadline wait indefinitely.
	ResponseTimeout time.Duration
	// RedialBackoff is the delay before the first redial of a poisoned
	// connection; it doubles per failed attempt. Zero defaults to 50ms.
	RedialBackoff time.Duration
	// RedialMax caps the exponential backoff. Zero defaults to 5s.
	RedialMax time.Duration
	// Tenant is the tenant credential: every pooled connection —
	// including background redials — performs the OpHello handshake with
	// it before entering rotation, so a healed connection can never
	// silently serve a different namespace than the one it replaced.
	// Empty means anonymous: no handshake is sent and the pool works
	// against pre-handshake servers unchanged.
	Tenant string
}

func (o PoolOptions) redialBackoff() time.Duration {
	if o.RedialBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return o.RedialBackoff
}

func (o PoolOptions) redialMax() time.Duration {
	if o.RedialMax <= 0 {
		return 5 * time.Second
	}
	return o.RedialMax
}

// PoolClient is a pool of pipelined connections to one storage node — the
// one TCP client; a caller that wants a single connection dials a pool of
// one. It is safe for concurrent use.
//
// Every operation takes a context: a context that is already done fails
// fast without touching the wire, and a context deadline (or, without one,
// PoolOptions.ResponseTimeout) bounds the wait for the response.
type PoolClient struct {
	addr string
	opts PoolOptions
	next atomic.Uint32

	mu     sync.Mutex
	closed bool
	tenant string        // current credential; guarded by mu
	done   chan struct{} // closed by Close; wakes sleeping redials
	wg     sync.WaitGroup

	slots []*poolSlot
}

// poolSlot is one position in the rotation: a live pipelined connection,
// or a vacancy being refilled by a background redial.
type poolSlot struct {
	pool *PoolClient

	mu        sync.Mutex
	pc        *pipeConn // nil while the slot is vacant
	redialing bool
}

// DialPool connects conns pipelined connections to a storage node with
// default options. conns < 1 is an error.
func DialPool(addr string, conns int) (*PoolClient, error) {
	return DialPoolOptions(addr, conns, PoolOptions{})
}

// DialPoolOptions is DialPool with explicit deadline and reconnect
// options. The initial dials are synchronous: a node that is down at
// construction time is reported immediately rather than spinning in
// backoff.
func DialPoolOptions(addr string, conns int, opts PoolOptions) (*PoolClient, error) {
	if conns < 1 {
		return nil, fmt.Errorf("transport: pool needs at least 1 connection, got %d", conns)
	}
	p := &PoolClient{addr: addr, opts: opts, tenant: opts.Tenant, done: make(chan struct{})}
	for i := 0; i < conns; i++ {
		pc, err := p.dialConn()
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots = append(p.slots, &poolSlot{pool: p, pc: pc})
	}
	return p, nil
}

// dialConn dials one pipelined connection and, when the pool carries a
// tenant credential, performs the handshake before the connection is
// exposed: a connection either serves the pool's tenant or never joins
// the rotation.
func (p *PoolClient) dialConn() (*pipeConn, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", p.addr, err)
	}
	pc := newPipeConn(conn, p.opts.ResponseTimeout)
	p.mu.Lock()
	tenant := p.tenant
	p.mu.Unlock()
	if tenant != "" {
		if err := helloConn(pc, tenant); err != nil {
			pc.close()
			return nil, err
		}
	}
	return pc, nil
}

// helloTimeout bounds the dial-path handshake. Without it a node that
// accepts TCP but never answers would pin the redial goroutine on an
// un-slotted connection forever — and PoolClient.Close, which waits for
// redial goroutines, with it. The cap applies even when the pool has no
// ResponseTimeout configured; a handshake is one tiny frame, so ten
// seconds is generous.
const helloTimeout = 10 * time.Second

// helloConn performs the tenant handshake on one connection. The
// handshake rides the normal FIFO request stream, so it needs no special
// sequencing — it is simply the connection's first request.
func helloConn(pc *pipeConn, tenant string) error {
	ctx, cancel := context.WithTimeout(context.Background(), helloTimeout)
	defer cancel()
	status, payload, err := pc.roundTrip(ctx, OpHello, tenant, []byte{HelloVersion})
	if err != nil {
		return err
	}
	if status != StatusOK {
		return fmt.Errorf("transport: handshake as %q refused: %w", tenant, remoteError(status, payload))
	}
	return nil
}

// Hello switches the pool's tenant credential: the handshake runs on
// every currently live connection, and every future redial carries the
// new credential. A connection whose handshake fails is closed (and so
// redialed in the background — with the new credential); the first
// failure is returned. Prefer setting PoolOptions.Tenant at dial time;
// Hello exists for brokers that acquire their credential later.
func (p *PoolClient) Hello(ctx context.Context, tenant string) error {
	p.mu.Lock()
	p.tenant = tenant
	p.mu.Unlock()
	var first error
	for _, s := range p.slots {
		s.mu.Lock()
		pc := s.pc
		s.mu.Unlock()
		if pc == nil || pc.broken() {
			continue // the redial path picks up the new credential
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if tenant == "" {
			// An anonymous credential cannot un-handshake a live
			// connection; recycle it so the redial comes up anonymous.
			pc.close()
		} else {
			status, payload, herr := pc.roundTrip(ctx, OpHello, tenant, []byte{HelloVersion})
			switch {
			case herr != nil:
				err = herr
			case status != StatusOK:
				err = fmt.Errorf("transport: handshake as %q refused: %w", tenant, remoteError(status, payload))
				pc.close() // never leave a conn on a stale tenant in rotation
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// live returns the slot's connection if it is usable. A poisoned
// connection is evicted from the slot and a background redial is started
// (unless the pool is closed or one is already running).
func (s *poolSlot) live() *pipeConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pc != nil {
		if !s.pc.broken() {
			return s.pc
		}
		s.pc.close() // already poisoned; release the socket and timer
		s.pc = nil
		obsPoolPoisoned.Inc()
	}
	if !s.redialing && s.pool.tryAddRedial() {
		s.redialing = true
		go s.redial()
	}
	return nil
}

// tryAddRedial registers one redial goroutine with the pool, refusing
// once the pool is closed. The closed check and the wg.Add happen under
// one lock — and Close marks closed under that same lock before it
// Waits — so an Add can never race a Wait that already saw zero.
func (p *PoolClient) tryAddRedial() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.wg.Add(1)
	return true
}

// redial refills a vacant slot: dial (and handshake, when the pool
// carries a tenant credential), and on failure sleep a jittered
// exponential backoff (50% to 150% of the nominal delay, so a pool's
// worth of redials does not stampede a recovering node in lockstep) and
// try again until the pool is closed. A node that accepts TCP but
// refuses the handshake counts as a failed dial — a connection on the
// wrong tenant never enters rotation.
func (s *poolSlot) redial() {
	defer s.pool.wg.Done()
	backoff := s.pool.opts.redialBackoff()
	for {
		if s.pool.isClosed() {
			s.stopRedialing()
			return
		}
		pc, err := s.pool.dialConn()
		if err == nil {
			obsPoolRedials.Inc()
			s.mu.Lock()
			s.pc = pc
			s.redialing = false
			s.mu.Unlock()
			if s.pool.isClosed() {
				pc.close() // lost the race with Close; don't leak the socket
			}
			return
		}
		obsPoolRedialFail.Inc()
		jittered := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		timer := time.NewTimer(jittered)
		select {
		case <-timer.C:
		case <-s.pool.done:
			timer.Stop()
			s.stopRedialing()
			return
		}
		backoff *= 2
		if max := s.pool.opts.redialMax(); backoff > max {
			backoff = max
		}
	}
}

func (s *poolSlot) stopRedialing() {
	s.mu.Lock()
	s.redialing = false
	s.mu.Unlock()
}

func (p *PoolClient) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Live returns the number of currently usable connections — the pool's
// surviving capacity while poisoned connections are being redialed.
func (p *PoolClient) Live() int {
	n := 0
	for _, s := range p.slots {
		s.mu.Lock()
		if s.pc != nil && !s.pc.broken() {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// pick returns the next usable connection round-robin, skipping (and
// scheduling redials for) poisoned slots. It fails only when every slot
// is down, wrapping store.ErrUnavailable: the node is unreachable for
// this client right now.
func (p *PoolClient) pick() (*pipeConn, error) {
	n := len(p.slots)
	for i := 0; i < n; i++ {
		if pc := p.slots[int(p.next.Add(1))%n].live(); pc != nil {
			return pc, nil
		}
	}
	return nil, fmt.Errorf("transport: all %d connections to %s down (redialing): %w", n, p.addr, store.ErrUnavailable)
}

// withConn runs op over a picked connection, retrying on a different
// connection when the failure poisoned the one it ran on (the slot is
// evicted and redialed by the next pick). Context errors and remote
// errors are never retried. Retrying is safe for this protocol: every
// operation is an idempotent overwrite, fetch or delete.
func (p *PoolClient) withConn(ctx context.Context, op func(*pipeConn) error) error {
	var lastErr error
	for i := 0; i <= len(p.slots); i++ {
		c, err := p.pick()
		if err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		if err = op(c); err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || !errors.Is(err, errConnFault) {
			return err
		}
		obsPoolRetries.Inc()
	}
	return lastErr
}

// Get fetches a block; it returns ErrNotFound for missing keys.
func (p *PoolClient) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := p.withConn(ctx, func(c *pipeConn) error {
		status, payload, err := c.roundTrip(ctx, OpGet, key, nil)
		if err != nil {
			return err
		}
		switch status {
		case StatusOK:
			out = payload
			return nil
		case StatusNotFound:
			return ErrNotFound
		default:
			return remoteError(status, payload)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Put stores a block. A write the node's admission control refused
// returns an error wrapping store.ErrQuotaExceeded — permanent for this
// write, do not retry.
func (p *PoolClient) Put(ctx context.Context, key string, data []byte) error {
	return p.simple(ctx, OpPut, key, data)
}

// Del removes a block.
func (p *PoolClient) Del(ctx context.Context, key string) error {
	return p.simple(ctx, OpDel, key, nil)
}

func (p *PoolClient) simple(ctx context.Context, op byte, key string, payload []byte) error {
	return p.withConn(ctx, func(c *pipeConn) error {
		status, resp, err := c.roundTrip(ctx, op, key, payload)
		if err != nil {
			return err
		}
		return ackError(status, resp)
	})
}

// PutMany stores all items in one round-trip on one pooled connection.
// The whole batch goes out as one frame via vectored I/O — block contents
// are handed to the kernel in place, never copied into a contiguous
// payload. The server applies items in order and reports the first store
// error; earlier items may have been stored when an error is returned.
func (p *PoolClient) PutMany(ctx context.Context, items []KV) error {
	return p.withConn(ctx, func(c *pipeConn) error {
		return putMany(ctx, c, items)
	})
}

// GetMany fetches all keys in one round-trip. The result has one entry per
// key in order; missing blocks are nil (a present-but-empty block comes
// back as a non-nil empty slice). A missing block is not an error.
func (p *PoolClient) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	var out [][]byte
	err := p.withConn(ctx, func(c *pipeConn) error {
		var err error
		out, err = getMany(ctx, c, keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StatMany reports, in one round-trip, which keys the node holds — the
// presence-only enumeration primitive: one flag per key in order, no
// block contents on the wire.
func (p *PoolClient) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	var out []bool
	err := p.withConn(ctx, func(c *pipeConn) error {
		var err error
		out, err = statMany(ctx, c, keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close closes every pooled connection and stops all background redials;
// in-flight requests fail.
func (p *PoolClient) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	close(p.done)
	p.mu.Unlock()
	var first error
	for _, s := range p.slots {
		s.mu.Lock()
		pc := s.pc
		s.mu.Unlock()
		if pc == nil {
			continue
		}
		if err := pc.close(); err != nil && first == nil {
			first = err
		}
	}
	p.wg.Wait()
	return first
}

// errPipeClosed reports a request issued after Close.
var errPipeClosed = errors.New("transport: connection closed")

// errConnFault marks failures that poisoned the connection they happened
// on — I/O errors, response timeouts, protocol desynchronisation. The
// pool treats them as grounds for eviction + retry on another
// connection; remote errors and context errors never carry it. It wraps
// store.ErrUnavailable: an operation that exhausted its retries on
// faulted connections failed because the node could not be reached,
// which callers tell apart from a node that answered with a refusal.
var errConnFault = fmt.Errorf("transport: connection fault: %w", store.ErrUnavailable)

// errResponseTimeout is the fault recorded when a request's response
// deadline expires before the node answers.
var errResponseTimeout = errors.New("response deadline exceeded")

// pipeResult is one matched response (or the connection's fatal error).
type pipeResult struct {
	status  byte
	payload []byte
	err     error
}

// pipePending is one in-flight request slot awaiting its response.
type pipePending struct {
	ch       chan pipeResult
	deadline time.Time // zero means no deadline
	recycled bool      // the caller returns the response to the frame pool
}

// pipeConn is one pipelined connection: writes are serialised, responses
// are matched FIFO by a dedicated reader goroutine, and a timeout wheel
// (one timer armed for the earliest pending deadline) poisons the
// connection when a response is overdue — the pairing with later
// responses can no longer be trusted, so the whole connection dies, and
// only this connection.
type pipeConn struct {
	conn           net.Conn
	defaultTimeout time.Duration // applied when a request's ctx has no deadline

	wmu sync.Mutex // serialises frame writes and pending-slot pushes

	mu      sync.Mutex
	pending []pipePending // oldest first; guarded by mu
	err     error         // sticky fatal error; guarded by mu
	timer   *time.Timer   // armed for the earliest pending deadline
}

func newPipeConn(conn net.Conn, defaultTimeout time.Duration) *pipeConn {
	c := &pipeConn{conn: conn, defaultTimeout: defaultTimeout}
	//lint:ignore goroleak readLoop exits when close() or a fault tears down the socket: every Read then fails and fail() resolves all pending slots
	go c.readLoop()
	return c
}

// broken reports whether the connection has been poisoned.
func (c *pipeConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// deadlineFor derives a request's response deadline: the context's, or
// now+defaultTimeout when the context has none.
func (c *pipeConn) deadlineFor(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	if c.defaultTimeout > 0 {
		return time.Now().Add(c.defaultTimeout)
	}
	return time.Time{}
}

// roundTrip pre-checks the context and request limits, then issues the
// request with the derived response deadline.
func (c *pipeConn) roundTrip(ctx context.Context, op byte, key string, payload []byte) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	// Validate before touching the wire: a caller error must not poison a
	// healthy connection.
	if len(key) > MaxKeyLen {
		return 0, nil, fmt.Errorf("transport: key too long (%d bytes)", len(key))
	}
	if len(payload) > MaxPayloadLen {
		return 0, nil, fmt.Errorf("transport: payload too large (%d bytes)", len(payload))
	}
	return c.send(c.deadlineFor(ctx), recycledResponse(op), func() error { return writeRequest(c.conn, op, key, payload) })
}

// roundTripSegments is roundTrip for a pre-framed scatter/gather request;
// segs[0] opens with the frame's op byte.
func (c *pipeConn) roundTripSegments(ctx context.Context, segs net.Buffers) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	return c.send(c.deadlineFor(ctx), recycledResponse(segs[0][0]), func() error {
		_, err := segs.WriteTo(c.conn)
		return err
	})
}

// recycledResponse reports whether the caller of op hands the response
// payload back to the frame pool: acknowledgements (ackError) and flag
// lists (flagsResponse) are decoded and recycled. Every other response
// escapes — Get, GetMany and XorMany give theirs to the caller, and the
// control ops decode from theirs without recycling — so readLoop
// allocates it exact-size instead of draining a pooled buffer that never
// returns.
func recycledResponse(op byte) bool {
	switch op {
	case OpPut, OpDel, OpPutMany, OpStatMany, OpXorPutMany:
		return true
	}
	return false
}

// send enqueues a pending response slot with its deadline and whether
// its caller recycles the response, performs the write under the write
// lock, and waits for the reader (or the timeout wheel) to deliver the
// matching response.
func (c *pipeConn) send(deadline time.Time, recycled bool, write func() error) (byte, []byte, error) {
	ch := make(chan pipeResult, 1)
	c.wmu.Lock()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, err
	}
	c.pending = append(c.pending, pipePending{ch: ch, deadline: deadline, recycled: recycled})
	c.armTimeoutLocked()
	c.mu.Unlock()
	err := write()
	c.wmu.Unlock()
	if err != nil {
		// Poison the connection: the reader fails and drains every pending
		// slot, including ours, so we just wait for the verdict.
		c.conn.Close()
	}
	res := <-ch
	return res.status, res.payload, res.err
}

// armTimeoutLocked (re)arms the timer for the earliest pending deadline.
// Callers hold c.mu. The pending list is short (the connection's
// in-flight window), so the scan costs less than a heap would.
func (c *pipeConn) armTimeoutLocked() {
	var earliest time.Time
	for _, p := range c.pending {
		if p.deadline.IsZero() {
			continue
		}
		if earliest.IsZero() || p.deadline.Before(earliest) {
			earliest = p.deadline
		}
	}
	if earliest.IsZero() {
		if c.timer != nil {
			c.timer.Stop()
		}
		return
	}
	d := time.Until(earliest)
	if d < 0 {
		d = 0
	}
	if c.timer == nil {
		c.timer = time.AfterFunc(d, c.onTimeout)
		return
	}
	c.timer.Stop()
	c.timer.Reset(d)
}

// onTimeout fires when the earliest pending deadline may have expired. A
// genuine expiry poisons the connection (closing the socket fails the
// reader, which drains every pending slot with the timeout fault); a
// stale wake-up re-arms for the new earliest deadline.
func (c *pipeConn) onTimeout() {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	expired := false
	for _, p := range c.pending {
		if !p.deadline.IsZero() && !p.deadline.After(now) {
			expired = true
			break
		}
	}
	if !expired {
		c.armTimeoutLocked()
		c.mu.Unlock()
		return
	}
	c.err = fmt.Errorf("%w: %w", errConnFault, errResponseTimeout)
	c.mu.Unlock()
	obsPoolTimeouts.Inc()
	c.conn.Close()
}

// readLoop matches responses to pending slots until the connection dies,
// then fails every outstanding and future request with the connection's
// first fault.
func (c *pipeConn) readLoop() {
	for {
		status, payload, err := readResponse(c.conn, c.responseBuf)
		if err == nil {
			c.mu.Lock()
			if len(c.pending) == 0 {
				c.mu.Unlock()
				err = errors.New("transport: unsolicited response")
			} else {
				ch := c.pending[0].ch
				c.pending = c.pending[1:]
				c.armTimeoutLocked()
				c.mu.Unlock()
				ch <- pipeResult{status: status, payload: payload}
				continue
			}
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = fmt.Errorf("%w: %w", errConnFault, err)
		}
		failure := c.err
		drained := c.pending
		c.pending = nil
		if c.timer != nil {
			c.timer.Stop()
		}
		c.mu.Unlock()
		c.conn.Close()
		for _, p := range drained {
			p.ch <- pipeResult{err: failure}
		}
		return
	}
}

// responseBuf allocates the payload buffer of the response readLoop is
// reading: from the frame pool when the oldest pending slot — the one
// the response answers — recycles it, exact-size otherwise. Only
// readLoop pops slots, so the slot it looks at is the one it resolves.
func (c *pipeConn) responseBuf(n int) []byte {
	c.mu.Lock()
	recycled := len(c.pending) > 0 && c.pending[0].recycled
	c.mu.Unlock()
	if recycled {
		return getBuf(n)
	}
	return make([]byte, n)
}

func (c *pipeConn) close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = errPipeClosed
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// Package transport implements a minimal TCP block-store protocol so the
// cooperative storage network of §IV.A can run across real sockets: storage
// nodes serve parity blocks to remote brokers ("node 5 answers step 4" in
// the Table III repair walkthrough).
//
// The wire protocol is deliberately simple and self-contained:
//
//	request  := op(1) keyLen(2, big endian) key payloadLen(4) payload
//	response := status(1) payloadLen(4) payload
//
// Operations: OpGet fetches a block by key (payload empty), OpPut stores a
// block, OpDel removes one; OpPutMany/OpGetMany move batches and
// OpStatMany answers presence-only flags (see batch.go); OpXorMany
// answers the XOR of each pair of keys, so a pp-tuple the node holds
// whole crosses the wire as one block (see xor.go); OpXorPutMany stores
// data ⊕ src under dst for each item, so a parity whose dp-tuple
// companion the node holds is rebuilt there from the one block the
// broker sends (see xorput.go); OpHello is the
// version-gated tenant handshake — the key names a tenant, and the rest
// of the connection serves that tenant's namespace. Status is StatusOK,
// StatusNotFound, StatusQuota (admission control refused a write) or
// StatusError (payload carries the error text). Every request is framed
// and independent; connections are persistent, serve any number of
// requests, and default to the anonymous namespace until a handshake.
//
// A Server serves any store.Keyed — the contract, including the
// consume-before-return write rule that lets the server recycle every
// receive buffer, is stated there — and applies each frame with exactly
// one store call. PoolClient is the one client.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aecodes/internal/store"
)

// Protocol operations.
const (
	OpGet byte = 1
	OpPut byte = 2
	OpDel byte = 3
	// OpPutMany and OpGetMany carry many blocks in one frame (see batch.go),
	// so a broker can ship an entire encode or repair round per storage node
	// in a single exchange.
	OpPutMany byte = 4
	OpGetMany byte = 5
	// OpHello is the tenant handshake (see hello.go): the key carries a
	// tenant ID, the payload a protocol version, and every later request
	// on the connection runs against that tenant's namespace. Connections
	// that never send it — every pre-handshake client — serve the default
	// (anonymous) tenant, so old clients keep working against new nodes.
	OpHello byte = 6
	// OpStatMany answers presence-only held/not flags for a batch of keys
	// (see batch.go): missing-block enumeration without shipping block
	// contents that the enumerator would immediately discard.
	OpStatMany byte = 7
	// OpNodeStat is a storage node's heartbeat to a cluster manager (see
	// cluster.go): the key names the node, the payload carries capacity,
	// live bytes, segment pressure and per-tenant usage.
	OpNodeStat byte = 8
	// OpUsage answers per-tenant byte/block usage (see cluster.go): the
	// key names a tenant ("" = all), the response lists usage records.
	OpUsage byte = 9
)

// Response statuses.
const (
	StatusOK       byte = 0
	StatusNotFound byte = 1
	StatusError    byte = 2
	// StatusQuota reports a write refused by the node's admission
	// control; clients surface it as store.ErrQuotaExceeded. Unlike
	// StatusError it is typed so callers can stop retrying — the same
	// write cannot succeed until space is freed.
	StatusQuota byte = 3
)

// HelloVersion is the tenant handshake protocol version this build
// speaks. A server refuses other versions with StatusError, so a future
// incompatible handshake fails closed instead of half-working.
const HelloVersion byte = 1

// Limits protect both sides from malformed frames.
const (
	MaxKeyLen     = 4096
	MaxPayloadLen = 64 << 20 // 64 MiB
)

// ErrNotFound is returned by PoolClient.Get for missing keys. It wraps the
// repository-wide store.ErrNotFound sentinel, so errors.Is works with
// either across every backend.
var ErrNotFound = fmt.Errorf("transport: %w", store.ErrNotFound)

// remoteError maps a non-OK response status to the caller-visible error,
// preserving the typed quota sentinel across the wire.
func remoteError(status byte, payload []byte) error {
	if status == StatusQuota {
		return fmt.Errorf("transport: %s: %w", payload, store.ErrQuotaExceeded)
	}
	return fmt.Errorf("transport: remote error: %s", payload)
}

// ackError consumes an acknowledgement-style response whose payload
// never escapes to the caller: a non-OK status is formatted into the
// returned error (copying the text out of the frame), and the response
// buffer rejoins the frame pool either way.
func ackError(status byte, resp []byte) error {
	var err error
	if status != StatusOK {
		err = remoteError(status, resp)
	}
	putBuf(resp)
	return err
}

// storeStatus maps a store write error to its response status: quota
// refusals travel typed, everything else as generic errors.
func storeStatus(err error) byte {
	if errors.Is(err, store.ErrQuotaExceeded) {
		return StatusQuota
	}
	return StatusError
}

// TenantResolver maps a handshake's tenant ID to the store view that
// connection should serve — typically a tenant registry handing out
// namespaced, quota-enforcing views. Returning an error refuses the
// handshake; wrap store.ErrQuotaExceeded to refuse it as a typed quota
// condition (e.g. a strict node rejecting unknown tenants).
type TenantResolver func(tenant string) (store.Keyed, error)

// MemStore is a trivial in-memory store.Keyed.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

var _ store.Keyed = (*MemStore)(nil)

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Get implements store.Keyed.
func (s *MemStore) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(b))
	copy(out, b)
	obsCopiedBytes.Add(int64(len(b)))
	return out, true
}

// Put implements store.Keyed.
func (s *MemStore) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	obsCopiedBytes.Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = cp
	return nil
}

// Del implements store.Keyed.
func (s *MemStore) Del(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// ReadBatch implements store.Keyed with one lock acquisition for the
// whole batch, and lends fn the stored slices themselves, uncopied. That
// is safe because a stored slice is never written again: Put and
// PutBatch store fresh copies and replace the map entry, they never
// modify a stored slice in place, so the bytes fn holds stay what they
// were even when the key is overwritten or deleted while fn runs.
func (s *MemStore) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	blocks := make([][]byte, len(keys))
	s.mu.RLock()
	for i, key := range keys {
		blocks[i] = s.m[key]
	}
	s.mu.RUnlock()
	return fn(blocks)
}

// PutBatch implements store.Keyed: the batch is copied first, then
// applied under one lock acquisition.
func (s *MemStore) PutBatch(items []store.KV) error {
	copies := make([][]byte, len(items))
	for i, it := range items {
		cp := make([]byte, len(it.Data))
		copy(cp, it.Data)
		obsCopiedBytes.Add(int64(len(it.Data)))
		copies[i] = cp
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, it := range items {
		s.m[it.Key] = copies[i]
	}
	return nil
}

// StatBatch implements store.Keyed: one entry per key in order, the
// block's byte length when present, -1 otherwise — presence answered
// without copying block contents.
func (s *MemStore) StatBatch(keys []string) []int {
	out := make([]int, len(keys))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, key := range keys {
		if b, ok := s.m[key]; ok {
			out[i] = len(b)
		} else {
			out[i] = -1
		}
	}
	return out
}

// Size reports the byte length of the block under key without copying
// it.
func (s *MemStore) Size(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	if !ok {
		return 0, false
	}
	return int64(len(b)), true
}

// Each walks every stored key with its size until fn returns false. The
// walk holds the store's read lock: fn must not call back into the
// store.
func (s *MemStore) Each(fn func(key string, size int64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, b := range s.m {
		if !fn(key, int64(len(b))) {
			return
		}
	}
}

// Dropped implements tenant.Backing: a MemStore never drops a key on its
// own, so it is always 0.
func (s *MemStore) Dropped() uint64 { return 0 }

// Len returns the number of stored blocks.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Clear drops every stored block — the "disk replaced" event of a storage
// node.
func (s *MemStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[string][]byte)
}

// Server serves a store.Keyed over TCP.
type Server struct {
	def store.Keyed // the default (anonymous-tenant) store

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	wg          sync.WaitGroup
	closed      bool
	idleTimeout time.Duration
	tenants     TenantResolver
	cluster     ClusterHandler

	// inflight counts requests currently being served — the foreground-
	// pressure signal background maintenance watches to yield.
	inflight atomic.Int64
}

// NewServer returns a server exposing store.
// It returns an error when store is nil.
func NewServer(st store.Keyed) (*Server, error) {
	if st == nil {
		return nil, errors.New("transport: nil store")
	}
	return &Server{def: st, conns: make(map[net.Conn]struct{})}, nil
}

// SetTenantResolver enables the tenant handshake: an OpHello naming a
// tenant switches its connection to the resolver's view of that tenant.
// Without a resolver (the default) the node is single-tenant — hellos
// for the anonymous tenant still succeed (they are a no-op), any other
// tenant is refused. Call before Listen.
func (s *Server) SetTenantResolver(r TenantResolver) {
	s.mu.Lock()
	s.tenants = r
	s.mu.Unlock()
}

// SetIdleTimeout makes the server drop connections that send no complete
// request for d — the server-side half of the connection lifecycle:
// clients abandoned by a pool (poisoned conns awaiting TCP teardown) or
// stalled mid-frame stop pinning a goroutine and a socket forever. The
// self-healing PoolClient transparently redials if it comes back. Zero
// (the default) disables the timeout. Call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	s.idleTimeout = d
	s.mu.Unlock()
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts serving
// in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.mu.Lock()
	idle := s.idleTimeout
	view := s.def
	s.mu.Unlock()
	// Frame heads and keys are tiny; buffering them cuts the per-request
	// read syscalls while large payload reads still bypass the buffer
	// (bufio reads straight into a destination at least its own size).
	br := bufio.NewReaderSize(conn, 32<<10)
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		op, key, payload, err := readRequest(br)
		if err != nil {
			return // client went away, idled out or sent garbage; drop it
		}
		s.inflight.Add(1)
		obsInflight.Add(1)
		start := time.Now()
		switch op {
		case OpGet:
			if b, ok := view.Get(key); ok {
				err = writeResponse(conn, StatusOK, b)
			} else {
				err = writeResponse(conn, StatusNotFound, nil)
			}
		case OpPut:
			if perr := view.Put(key, payload); perr != nil {
				err = writeResponse(conn, storeStatus(perr), []byte(perr.Error()))
			} else {
				err = writeResponse(conn, StatusOK, nil)
			}
		case OpDel:
			view.Del(key)
			err = writeResponse(conn, StatusOK, nil)
		case OpPutMany:
			err = servePutMany(conn, view, payload)
		case OpGetMany:
			err = serveGetMany(conn, view, payload)
		case OpStatMany:
			err = serveStatMany(conn, view, payload)
		case OpXorMany:
			err = serveXorMany(conn, view, payload)
		case OpXorPutMany:
			err = serveXorPutMany(conn, view, payload)
		case OpHello:
			view, err = s.serveHello(conn, view, key, payload)
		case OpNodeStat:
			err = s.serveNodeStat(conn, key, payload)
		case OpUsage:
			err = s.serveUsage(conn, key, payload)
		case OpMetrics:
			err = s.serveMetrics(conn, key, payload)
		default:
			err = writeResponse(conn, StatusError, []byte("unknown op"))
		}
		recordServed(op, len(key)+len(payload), start, err)
		// The request payload came from the frame pool and handlers decode
		// it by aliasing. No alias survives the handler: reads and control
		// ops copy whatever they keep, and writes run under store.Keyed's
		// consume-before-return contract.
		putBuf(payload)
		s.inflight.Add(-1)
		obsInflight.Sub(1)
		if err != nil {
			return
		}
	}
}

// Inflight returns the number of requests currently being served.
// Background maintenance treats a non-zero value as foreground pressure
// and pauses its rate bucket until the server drains.
func (s *Server) Inflight() int {
	return int(s.inflight.Load())
}

// serveHello handles one tenant handshake: validate the version, resolve
// the tenant to its store view, and serve the rest of the connection
// from it. The current view is returned unchanged on refusal — a failed
// handshake downgrades to the tenant the connection already had, it
// never grants a different one.
func (s *Server) serveHello(conn net.Conn, cur store.Keyed, tenant string, payload []byte) (store.Keyed, error) {
	version, err := parseHello(payload)
	if err != nil {
		return cur, writeResponse(conn, StatusError, []byte(err.Error()))
	}
	s.mu.Lock()
	resolver := s.tenants
	s.mu.Unlock()
	if resolver == nil {
		if tenant != "" {
			return cur, writeResponse(conn, StatusError, []byte("transport: node does not serve tenants"))
		}
		// Anonymous hello against a single-tenant node: a no-op, so a
		// credentialed client can still talk to an un-upgraded node when
		// its credential is empty.
		return cur, writeResponse(conn, StatusOK, []byte{version})
	}
	view, rerr := resolver(tenant)
	if rerr != nil {
		return cur, writeResponse(conn, storeStatus(rerr), []byte(rerr.Error()))
	}
	if view == nil {
		return cur, writeResponse(conn, StatusError, []byte("transport: resolver returned no store"))
	}
	return view, writeResponse(conn, StatusOK, []byte{version})
}

// parseHello validates an OpHello payload and returns the negotiated
// version. The payload is version(1) followed by reserved bytes future
// versions may define; version 1 must not carry any.
func parseHello(payload []byte) (byte, error) {
	if len(payload) < 1 {
		return 0, errors.New("transport: empty handshake payload")
	}
	if payload[0] != HelloVersion {
		return 0, fmt.Errorf("transport: unsupported handshake version %d", payload[0])
	}
	if len(payload) > 1 {
		return 0, fmt.Errorf("transport: %d trailing bytes in v%d handshake", len(payload)-1, HelloVersion)
	}
	return payload[0], nil
}

// Close stops the server and waits for in-flight connections to finish. It
// is idempotent and safe to call concurrently: every call waits for the
// same shutdown and returns nil, so a signal handler racing a deferred
// Close cannot turn a clean exit into a failure.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.listener != nil {
			s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func writeRequest(w io.Writer, op byte, key string, payload []byte) error {
	if len(key) > MaxKeyLen {
		return fmt.Errorf("transport: key too long (%d bytes)", len(key))
	}
	if len(payload) > MaxPayloadLen {
		return fmt.Errorf("transport: payload too large (%d bytes)", len(payload))
	}
	buf := getBuf(1 + 2 + len(key) + 4 + len(payload))[:0]
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	putBuf(buf)
	return err
}

func readRequest(r io.Reader) (op byte, key string, payload []byte, err error) {
	var head [3]byte
	if _, err = io.ReadFull(r, head[:]); err != nil {
		return 0, "", nil, err
	}
	op = head[0]
	keyLen := binary.BigEndian.Uint16(head[1:])
	if keyLen > MaxKeyLen {
		return 0, "", nil, fmt.Errorf("transport: key length %d exceeds limit", keyLen)
	}
	keyBuf := make([]byte, keyLen)
	if _, err = io.ReadFull(r, keyBuf); err != nil {
		return 0, "", nil, err
	}
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, "", nil, err
	}
	payloadLen := binary.BigEndian.Uint32(lenBuf[:])
	if payloadLen > MaxPayloadLen {
		return 0, "", nil, fmt.Errorf("transport: payload length %d exceeds limit", payloadLen)
	}
	payload = getBuf(int(payloadLen))
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, "", nil, err
	}
	return op, string(keyBuf), payload, nil
}

func writeResponse(w io.Writer, status byte, payload []byte) error {
	if len(payload) > MaxPayloadLen {
		return fmt.Errorf("transport: payload too large (%d bytes)", len(payload))
	}
	buf := getBuf(1 + 4 + len(payload))[:0]
	buf = append(buf, status)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	putBuf(buf)
	return err
}

// readResponse reads one response frame, its payload into the buffer
// alloc returns for the payload length: the client's reader draws it
// from the frame pool only when the caller recycles the response (see
// recycledResponse).
func readResponse(r io.Reader, alloc func(n int) []byte) (status byte, payload []byte, err error) {
	var head [5]byte
	if _, err = io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	status = head[0]
	payloadLen := binary.BigEndian.Uint32(head[1:])
	if payloadLen > MaxPayloadLen {
		return 0, nil, fmt.Errorf("transport: payload length %d exceeds limit", payloadLen)
	}
	payload = alloc(int(payloadLen))
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return status, payload, nil
}

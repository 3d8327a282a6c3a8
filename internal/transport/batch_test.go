package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aecodes/internal/store"
)

func TestPutManyGetManyRoundTrip(t *testing.T) {
	store, addr := startServer(t)
	c := dial(t, addr)

	items := []KV{
		{Key: "a", Data: []byte("alpha")},
		{Key: "b", Data: []byte{}},
		{Key: "c", Data: bytes.Repeat([]byte{0xEE}, 4096)},
	}
	if err := c.PutMany(bg, items); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Fatalf("store has %d blocks, want 3", store.Len())
	}

	got, err := c.GetMany(bg, []string{"a", "missing", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], []byte("alpha")) {
		t.Errorf("got[0] = %q", got[0])
	}
	if got[1] != nil {
		t.Errorf("missing key returned %v, want nil", got[1])
	}
	if got[2] == nil || len(got[2]) != 0 {
		t.Errorf("empty block came back as %v, want non-nil empty", got[2])
	}
	if !bytes.Equal(got[3], items[2].Data) {
		t.Error("large block corrupted")
	}
}

func TestBatchEmpty(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.PutMany(bg, nil); err != nil {
		t.Fatalf("empty PutMany: %v", err)
	}
	got, err := c.GetMany(bg, nil)
	if err != nil {
		t.Fatalf("empty GetMany: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty GetMany returned %d entries", len(got))
	}
}

func TestBatchLimits(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	// Too many entries is rejected client-side.
	keys := make([]string, MaxBatchEntries+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	if _, err := c.GetMany(bg, keys); err == nil {
		t.Error("oversized GetMany batch accepted")
	}
	items := make([]KV, MaxBatchEntries+1)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("k%d", i)}
	}
	if err := c.PutMany(bg, items); err == nil {
		t.Error("oversized PutMany batch accepted")
	}
	// Oversized key is rejected client-side.
	if err := c.PutMany(bg, []KV{{Key: strings.Repeat("x", MaxKeyLen+1)}}); err == nil {
		t.Error("oversized key accepted")
	}
	// Oversized total payload is rejected client-side before framing.
	if err := c.PutMany(bg, []KV{
		{Key: "big1", Data: make([]byte, MaxPayloadLen/2)},
		{Key: "big2", Data: make([]byte, MaxPayloadLen/2)},
	}); err == nil {
		t.Error("payload-overflow batch accepted")
	}
	// The connection must still be usable after client-side rejections.
	if err := c.Put(bg, "after", []byte("ok")); err != nil {
		t.Fatalf("connection unusable after rejected batches: %v", err)
	}
}

// TestMalformedBatchFrames sends syntactically valid frames whose batch
// payloads are garbage: the server must answer StatusError and keep the
// connection alive.
func TestMalformedBatchFrames(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	pc, err := c.pick() // the pool's one connection, for raw frames
	if err != nil {
		t.Fatal(err)
	}

	bad := [][]byte{
		{},                 // no count
		{0x00, 0x00, 0x01}, // short count
		binary.BigEndian.AppendUint32(nil, MaxBatchEntries+1),     // count over limit
		binary.BigEndian.AppendUint32(nil, 2),                     // count promises entries that never come
		append(binary.BigEndian.AppendUint32(nil, 1), 0xFF, 0xFF), // key length over limit
		func() []byte { // trailing junk after a valid entry
			b := binary.BigEndian.AppendUint32(nil, 1)
			b = binary.BigEndian.AppendUint16(b, 1)
			b = append(b, 'k')
			b = binary.BigEndian.AppendUint32(b, 0)
			return append(b, 0xAA, 0xBB)
		}(),
	}
	for op, name := range map[byte]string{OpPutMany: "putMany", OpGetMany: "getMany"} {
		for i, payload := range bad {
			status, _, err := pc.roundTrip(bg, op, "", payload)
			if err != nil {
				t.Fatalf("%s[%d]: connection died: %v", name, i, err)
			}
			if status != StatusError {
				t.Errorf("%s[%d]: status = %d, want StatusError", name, i, status)
			}
		}
	}
	// Connection still serves ordinary requests.
	if err := c.Put(bg, "alive", []byte("yes")); err != nil {
		t.Fatalf("connection unusable after malformed batches: %v", err)
	}
}

func TestGetManyRespDecodeErrors(t *testing.T) {
	// found flag other than 0/1.
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = append(b, 7)
	b = binary.BigEndian.AppendUint32(b, 0)
	if _, err := decodeGetManyResp(b); err == nil {
		t.Error("bad found flag accepted")
	}
	// missing entry carrying data.
	b = binary.BigEndian.AppendUint32(nil, 1)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint32(b, 2)
	b = append(b, 'h', 'i')
	if _, err := decodeGetManyResp(b); err == nil {
		t.Error("missing entry with data accepted")
	}
}

// countingProxy forwards bytes between a client and the real server while
// counting request frames with the wire parser.
func countingProxy(t *testing.T, backend string) (addr string, frames *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frames = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				return
			}
			go func() { // responses flow back verbatim
				defer conn.Close()
				defer up.Close()
				buf := make([]byte, 64<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						if _, werr := conn.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
			go func() { // requests are parsed frame by frame
				defer conn.Close()
				defer up.Close()
				for {
					op, key, payload, err := readRequest(conn)
					if err != nil {
						return
					}
					frames.Add(1)
					if err := writeRequest(up, op, key, payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), frames
}

// TestBatchUsesOneFrame proves the traffic shape the batch ops exist for:
// however many blocks move, one exchange is one request frame.
func TestBatchUsesOneFrame(t *testing.T) {
	_, backend := startServer(t)
	addr, frames := countingProxy(t, backend)
	c := dial(t, addr)

	const blocks = 300
	items := make([]KV, blocks)
	keys := make([]string, blocks)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("blk%03d", i), Data: bytes.Repeat([]byte{byte(i)}, 512)}
		keys[i] = items[i].Key
	}
	if err := c.PutMany(bg, items); err != nil {
		t.Fatal(err)
	}
	if got := frames.Load(); got != 1 {
		t.Errorf("PutMany of %d blocks used %d request frames, want 1", blocks, got)
	}
	got, err := c.GetMany(bg, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i], items[i].Data) {
			t.Fatalf("block %d corrupted through proxy", i)
		}
	}
	if gotFrames := frames.Load(); gotFrames != 2 {
		t.Errorf("PutMany+GetMany used %d request frames, want 2", gotFrames)
	}
}

func TestPoolClientOps(t *testing.T) {
	store, addr := startServer(t)
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	if err := p.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(bg, "k")
	if err != nil || !bytes.Equal(b, []byte("v")) {
		t.Fatalf("Get = %q, %v", b, err)
	}
	if _, err := p.Get(bg, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if err := p.PutMany(bg, []KV{{Key: "x", Data: []byte("1")}, {Key: "y", Data: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	many, err := p.GetMany(bg, []string{"x", "gone", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(many[0], []byte("1")) || many[1] != nil || !bytes.Equal(many[2], []byte("2")) {
		t.Fatalf("GetMany = %q", many)
	}
	if err := p.Del(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("k"); ok {
		t.Error("Del did not remove the block")
	}
}

// TestPoolClientPipelines hammers one PoolClient from many goroutines:
// responses must match their requests even when dozens are in flight on
// the same connections.
func TestPoolClientPipelines(t *testing.T) {
	_, addr := startServer(t)
	p, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	const goroutines, rounds = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("g%d-r%d", g, r)
				val := []byte(key + "-payload")
				if err := p.Put(bg, key, val); err != nil {
					errs <- err
					return
				}
				got, err := p.Get(bg, key)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, val) {
					errs <- fmt.Errorf("key %s: got %q, want %q — responses crossed", key, got, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolClientClosedConnectionFails(t *testing.T) {
	_, addr := startServer(t)
	p, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(bg, "k", []byte("v")); err == nil {
		t.Error("Put on closed pool succeeded")
	}
}

func TestDialPoolValidation(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 0); err == nil {
		t.Error("DialPool accepted 0 connections")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Sequential double close: both must succeed (the aestored SIGTERM
	// path closes once from the handler and once from a defer).
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Concurrent closes must not race or error either.
	srv2, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv2.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

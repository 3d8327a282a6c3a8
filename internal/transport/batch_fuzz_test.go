package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"aecodes/internal/store"
)

// captureConn is a net.Conn that keeps everything written to it.
type captureConn struct {
	net.Conn
	out []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// served runs one server handler against a capturing connection and
// returns the response payload it wrote, failing unless the status is
// StatusOK.
func served(t *testing.T, handler func(net.Conn) error) []byte {
	t.Helper()
	var conn captureConn
	if err := handler(&conn); err != nil {
		t.Fatalf("handler failed: %v", err)
	}
	if len(conn.out) < 5 || conn.out[0] != StatusOK {
		t.Fatalf("handler answered %q, want StatusOK", conn.out)
	}
	return conn.out[5:]
}

// batchKey names the k-th key of a re-encoded batch.
func batchKey(k int) string { return fmt.Sprintf("k%d", k) }

// FuzzBatchFrames feeds one arbitrary batch payload to every batch
// decoder: putMany, getManyQ and xorPutManyQ, which a node parses from any
// client, the XorMany pair rule on top of getManyQ, and getManyR and
// statManyR — the flag list StatMany and XorPutMany answer — which a
// client parses from a node. No decoder may panic or size anything past
// the count the frame declares, and whatever one accepts must re-encode —
// through the production encoder or server handler — to the very same
// bytes.
func FuzzBatchFrames(f *testing.F) {
	segs, arena, err := putManySegments([]KV{{Key: "k", Data: []byte("v")}, {Key: "", Data: nil}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join(segs, nil)[7:])
	putBuf(arena)
	for _, keys := range [][]string{{"a", "b"}, {"a", "b", "c"}, {}} {
		q, err := encodeGetManyReq(keys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q)
	}
	resp := binary.BigEndian.AppendUint32(nil, 3)
	resp = append(resp, 1, 0, 0, 0, 2, 'h', 'i', 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)
	f.Add(resp)
	f.Add(append(binary.BigEndian.AppendUint32(nil, 3), 1, 0, 1))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBatchEntries))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxBatchEntries+1))
	f.Add([]byte{0, 0, 1})

	f.Fuzz(func(t *testing.T, frame []byte) {
		declared := -1
		if len(frame) >= 4 {
			declared = int(binary.BigEndian.Uint32(frame))
		}
		sized := func(name string, n, capacity int) {
			if n != declared || capacity > declared {
				t.Fatalf("%s decoded %d entries into room for %d, frame declares %d", name, n, capacity, declared)
			}
		}

		if items, err := decodePutMany(frame); err == nil {
			sized("putMany", len(items), cap(items))
			segs, arena, err := putManySegments(items)
			if err != nil {
				t.Fatalf("accepted putMany does not re-encode: %v", err)
			}
			if re := bytes.Join(segs, nil); re[0] != OpPutMany || !bytes.Equal(re[7:], frame) {
				t.Fatal("putMany round trip not stable")
			}
			putBuf(arena)
		}

		if items, err := decodeXorPutMany(frame); err == nil {
			sized("xorPutManyQ", len(items), cap(items))
			if !bytes.Equal(xorPutFrame(t, items), frame) {
				t.Fatal("xorPutManyQ round trip not stable")
			}
		}

		keys, qerr := decodeGetManyReq(frame)
		if qerr == nil {
			sized("getManyQ", len(keys), cap(keys))
			re, err := encodeGetManyReq(keys)
			if err != nil || !bytes.Equal(re, frame) {
				t.Fatalf("getManyQ round trip not stable (err %v)", err)
			}
		}
		if _, err := decodeXorManyReq(frame); (err == nil) != (qerr == nil && len(keys)%2 == 0) {
			t.Fatalf("xorManyQ accepted=%v for a key list of %d (getManyQ error %v)", err == nil, len(keys), qerr)
		}

		if blocks, err := decodeGetManyResp(frame); err == nil {
			sized("getManyR", len(blocks), cap(blocks))
			// Serve the same answer back: a GetMany of one key per entry,
			// and an XorMany of one pair per entry whose second member is
			// zeros, so its XOR is the entry itself.
			st := store.NewMem()
			keys := make([]string, len(blocks))
			pairs := make([]string, 0, 2*len(blocks))
			for k, b := range blocks {
				keys[k] = batchKey(k)
				zero := "z" + keys[k]
				pairs = append(pairs, keys[k], zero)
				if b != nil {
					st.Put(keys[k], b)
					st.Put(zero, make([]byte, len(b)))
				}
			}
			q, err := encodeGetManyReq(keys)
			if err != nil {
				t.Fatal(err)
			}
			if re := served(t, func(c net.Conn) error { return serveGetMany(c, st, q) }); !bytes.Equal(re, frame) {
				t.Fatal("getManyR round trip through serveGetMany not stable")
			}
			if q, err = encodeGetManyReq(pairs); err != nil {
				return // more pairs' keys than one request may carry
			}
			if re := served(t, func(c net.Conn) error { return serveXorMany(c, st, q) }); !bytes.Equal(re, frame) {
				t.Fatal("getManyR round trip through serveXorMany not stable")
			}
		}

		if held, err := decodeStatManyResp(frame); err == nil {
			sized("statManyR", len(held), cap(held))
			st := store.NewMem()
			keys := make([]string, len(held))
			for k, h := range held {
				keys[k] = batchKey(k)
				if h {
					st.Put(keys[k], nil)
				}
			}
			q, err := encodeGetManyReq(keys)
			if err != nil {
				t.Fatal(err)
			}
			if re := served(t, func(c net.Conn) error { return serveStatMany(c, st, q) }); !bytes.Equal(re, frame) {
				t.Fatal("statManyR round trip through serveStatMany not stable")
			}
			// The same flags as an XorPutMany answer: item k reads the
			// empty block under key k, held exactly where flag k is set.
			items := make([]XorPut, len(held))
			for k := range held {
				items[k] = XorPut{Dst: "d" + keys[k], Src: keys[k]}
			}
			q = xorPutFrame(t, items)
			if re := served(t, func(c net.Conn) error { return serveXorPutMany(c, st, q) }); !bytes.Equal(re, frame) {
				t.Fatal("statManyR round trip through serveXorPutMany not stable")
			}
		}
	})
}

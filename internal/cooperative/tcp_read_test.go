package cooperative_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// startOldNode fronts a storage node with a proxy that plays a node built
// before OpXorMany and OpXorPutMany: it answers those ops with StatusError
// "unknown op", as the server's default case does, and relays every other
// request to the backend one exchange at a time, so responses stay in
// request order.
func startOldNode(t *testing.T, backend string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				return
			}
			go func() {
				defer client.Close()
				defer up.Close()
				relayWithoutXor(client, up)
			}()
		}
	}()
	return ln.Addr().String()
}

func relayWithoutXor(client, up net.Conn) {
	req, resp := bufio.NewReader(client), bufio.NewReader(up)
	for {
		var head [3]byte // op, key length
		if _, err := io.ReadFull(req, head[:]); err != nil {
			return
		}
		keyLen := int(binary.BigEndian.Uint16(head[1:]))
		rest := make([]byte, keyLen+4) // key, payload length
		if _, err := io.ReadFull(req, rest); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(rest[keyLen:]))
		if _, err := io.ReadFull(req, payload); err != nil {
			return
		}
		if head[0] == transport.OpXorMany || head[0] == transport.OpXorPutMany {
			msg := []byte("unknown op")
			frame := append([]byte{transport.StatusError}, binary.BigEndian.AppendUint32(nil, uint32(len(msg)))...)
			if _, err := client.Write(append(frame, msg...)); err != nil {
				return
			}
			continue
		}
		if _, err := up.Write(append(append(head[:], rest...), payload...)); err != nil {
			return
		}
		var rhead [5]byte // status, payload length
		if _, err := io.ReadFull(resp, rhead[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(rhead[1:]))
		if _, err := io.ReadFull(resp, body); err != nil {
			return
		}
		if _, err := client.Write(append(rhead[:], body...)); err != nil {
			return
		}
	}
}

// TestReadOverTCP reads every block of a lattice back over real sockets
// from one node, which holds every tuple whole: a current node answers
// with node-side XORs, and a node that predates OpXorMany refuses the op,
// so the broker fetches each pair through GetMany instead — the same
// bytes either way.
func TestReadOverTCP(t *testing.T) {
	const (
		n         = 30
		blockSize = 64
	)
	for _, old := range []bool{false, true} {
		name := "current node"
		if old {
			name = "node without OpXorMany"
		}
		t.Run(name, func(t *testing.T) {
			srv, err := transport.NewServer(store.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			if old {
				addr = startOldNode(t, addr)
			}
			pool, err := transport.DialPool(addr, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pool.Close() })
			b, err := cooperative.NewBroker("tcpreader", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, []cooperative.NodeStore{pool})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(31))
			originals := make([][]byte, n+1)
			for i := 1; i <= n; i++ {
				originals[i] = make([]byte, blockSize)
				rng.Read(originals[i])
				if _, err := b.Backup(ctx, originals[i]); err != nil {
					t.Fatal(err)
				}
			}
			b.DropLocal()
			before := obs.Default.Snapshot().Counters
			for i := 1; i <= n; i++ {
				got, err := b.Read(ctx, i)
				if err != nil || !bytes.Equal(got, originals[i]) {
					t.Fatalf("Read(%d): wrong content or error %v", i, err)
				}
			}
			after := obs.Default.Snapshot().Counters
			nodeXor := after["cooperative/read.node_xor"] - before["cooperative/read.node_xor"]
			pairs := after["cooperative/read.pair_fetch"] - before["cooperative/read.pair_fetch"]
			if old && (nodeXor != 0 || pairs != n) {
				t.Errorf("reads from an old node counted %d node XORs and %d pair fetches, want 0 and %d", nodeXor, pairs, n)
			}
			if !old && (nodeXor == 0 || nodeXor+pairs != n) {
				t.Errorf("reads from a current node counted %d node XORs and %d pair fetches, want most of %d as XORs", nodeXor, pairs, n)
			}
		})
	}
}

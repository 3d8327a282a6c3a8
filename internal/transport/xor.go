// Node-side decode: OpXorMany lets a node that holds both members of a
// pair answer their XOR, so a reader rebuilding a block from a pp-tuple
// (d_i = p_{h,i} ⊕ p_{i,j}) receives one block instead of two.
//
// The request is a getManyQ key list with an even count, read as pairs
// (keys[2k], keys[2k+1]); the response is a getManyR with one entry per
// pair: found=1 and a⊕b when the node holds both members at equal
// length, found=0 otherwise (see batch.go).
package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"

	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// OpXorMany asks a node for the XOR of each pair of keys it is sent.
const OpXorMany byte = 11

// XorMany sends keys as pairs and returns, in one round-trip, one entry
// per pair in order: the XOR of the two blocks when the node holds both
// at equal length, nil otherwise. An odd key count is refused before
// touching the wire. A node that predates the op answers "unknown op",
// which comes back as a remote error.
func (p *PoolClient) XorMany(ctx context.Context, keys []string) ([][]byte, error) {
	if len(keys)%2 != 0 {
		return nil, errNotPairs(len(keys))
	}
	var out [][]byte
	err := p.withConn(ctx, func(c *pipeConn) error {
		var err error
		out, err = readMany(ctx, c, OpXorMany, keys, len(keys)/2)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func errNotPairs(n int) error {
	return fmt.Errorf("transport: xor batch of %d keys is not a list of pairs", n)
}

// decodeXorManyReq decodes an OpXorMany request: a getManyQ key list
// whose count is even.
func decodeXorManyReq(payload []byte) ([]string, error) {
	keys, err := decodeGetManyReq(payload)
	if err != nil {
		return nil, err
	}
	if len(keys)%2 != 0 {
		return nil, errNotPairs(len(keys))
	}
	return keys, nil
}

// pairComplete reports whether a pair can be XORed: both members held, at
// equal length.
func pairComplete(a, b []byte) bool {
	return a != nil && b != nil && len(a) == len(b)
}

// serveXorMany handles one OpXorMany frame: one ReadBatch call — every
// record it lends has been verified by the store — whose callback XORs
// each complete pair straight into one pooled response frame. No buffer
// is allocated per block, and the frame rejoins the pool once written.
func serveXorMany(conn net.Conn, st store.Keyed, payload []byte) error {
	keys, err := decodeXorManyReq(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return st.ReadBatch(keys, func(blocks [][]byte) error {
		pairs := len(blocks) / 2
		respPayload := 4
		for k := 0; k < pairs; k++ {
			respPayload += 1 + 4
			if a, b := blocks[2*k], blocks[2*k+1]; pairComplete(a, b) {
				respPayload += len(a)
			}
		}
		if respPayload > MaxPayloadLen {
			return writeResponse(conn, StatusError,
				[]byte(fmt.Sprintf("transport: xor payload too large (%d bytes)", respPayload)))
		}
		frame := getBuf(1 + 4 + respPayload)[:0]
		frame = append(frame, StatusOK)
		frame = binary.BigEndian.AppendUint32(frame, uint32(respPayload))
		frame = binary.BigEndian.AppendUint32(frame, uint32(pairs))
		for k := 0; k < pairs; k++ {
			a, b := blocks[2*k], blocks[2*k+1]
			if !pairComplete(a, b) {
				frame = append(frame, 0, 0, 0, 0, 0)
				continue
			}
			frame = append(frame, 1)
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(a)))
			n := len(frame)
			frame = frame[:n+len(a)]
			if err := xorblock.XorInto(frame[n:], a, b); err != nil {
				putBuf(frame)
				return err // unreachable: pairComplete checked the lengths
			}
		}
		_, err := conn.Write(frame)
		putBuf(frame)
		return err
	})
}

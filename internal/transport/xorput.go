// Node-side rebuild: OpXorPutMany lets a node that holds a lost parity's
// dp-tuple companion rebuild the parity in place. Repairing
// p_{i,j} = d_i ⊕ p_{h,i} (Table III), a broker sends d_i once and the
// node stores d_i ⊕ p_{h,i}, instead of the broker fetching p_{h,i} and
// uploading the result — one block on the wire per rebuilt parity, not
// two.
//
// The request is an xorPutManyQ, one (dst, src, data) item per parity;
// the response a statManyR with one applied/not byte per item (see
// batch.go). An item is applied when the node holds src at len(data) and
// no item of the frame writes src: a frame then reads only what it does
// not write, so it is an idempotent overwrite like every other op, and
// the pool may retry it on another connection.
package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"

	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// OpXorPutMany asks a node to store dst = data ⊕ src for each item.
const OpXorPutMany byte = 12

// XorPut is one item of an XorPutMany batch — the repository-wide
// store.XorKV.
type XorPut = store.XorKV

// XorPutMany sends items in one round-trip and returns one flag per item
// in order: true when the node stored Dst = Data ⊕ Src, false when it
// holds no Src at len(Data) (missing, found corrupt on read, or another
// length) or the batch also writes Src. The data slices go out in place,
// like PutMany's. A write the node's admission control refused returns an
// error wrapping store.ErrQuotaExceeded, and nothing of the batch is
// stored; a node that predates the op answers "unknown op", which comes
// back as a remote error.
func (p *PoolClient) XorPutMany(ctx context.Context, items []XorPut) ([]bool, error) {
	var out []bool
	err := p.withConn(ctx, func(c *pipeConn) error {
		segs, arena, err := xorPutManySegments(items)
		if err != nil {
			return err
		}
		status, resp, err := c.roundTripSegments(ctx, segs)
		putBuf(arena)
		if err != nil {
			return err
		}
		out, err = flagsResponse(status, resp, len(items))
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// xorPutManySegments lays out an OpXorPutMany frame the way
// putManySegments lays out an OpPutMany one: headers in one pooled arena,
// returned for the caller to recycle, and every data slice in place.
func xorPutManySegments(items []XorPut) (net.Buffers, []byte, error) {
	if err := checkBatchCount(len(items)); err != nil {
		return nil, nil, err
	}
	payload := 4
	hdrSize := 1 + 2 + 4 + 4 // op, empty key, payload length, batch count
	for _, it := range items {
		if n := max(len(it.Dst), len(it.Src)); n > MaxKeyLen {
			return nil, nil, fmt.Errorf("transport: key too long (%d bytes)", n)
		}
		hdr := 2 + len(it.Dst) + 2 + len(it.Src) + 4
		payload += hdr + len(it.Data)
		hdrSize += hdr
	}
	if payload > MaxPayloadLen {
		return nil, nil, fmt.Errorf("transport: batch payload too large (%d bytes)", payload)
	}
	g := newGather(hdrSize, len(items))
	g.arena = append(g.arena, OpXorPutMany)
	g.arena = binary.BigEndian.AppendUint16(g.arena, 0)
	g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(payload))
	g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(items)))
	for _, it := range items {
		g.arena = appendKey(g.arena, it.Dst)
		g.arena = appendKey(g.arena, it.Src)
		g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(it.Data)))
		g.block(it.Data)
	}
	return g.frame(), g.arena, nil
}

// walkXorPutMany walks an xorPutManyQ payload, handing fn each item's
// keys and data as they sit in the payload, and returns the item count.
func walkXorPutMany(payload []byte, fn func(dst, src, data []byte)) (int, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return 0, err
	}
	for n := 0; n < count; n++ {
		var dst, src, data []byte
		if dst, rest, err = takeKeyBytes(rest); err != nil {
			return 0, err
		}
		if src, rest, err = takeKeyBytes(rest); err != nil {
			return 0, err
		}
		if data, rest, err = takeBlock(rest); err != nil {
			return 0, err
		}
		fn(dst, src, data)
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("transport: %d trailing bytes in batch", len(rest))
	}
	return count, nil
}

// decodeXorPutMany decodes an OpXorPutMany request. Every data slice
// aliases payload, and the keys are substrings of one string copied from
// the payload's keys, so a request costs the same few allocations whatever
// its item count.
func decodeXorPutMany(payload []byte) ([]XorPut, error) {
	keyBytes := 0
	count, err := walkXorPutMany(payload, func(dst, src, _ []byte) { keyBytes += len(dst) + len(src) })
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.Grow(keyBytes)
	walkXorPutMany(payload, func(dst, src, _ []byte) {
		b.Write(dst)
		b.Write(src)
	})
	keys := b.String()
	items := make([]XorPut, 0, count)
	off := 0
	take := func(n int) string {
		off += n
		return keys[off-n : off]
	}
	walkXorPutMany(payload, func(dst, src, data []byte) {
		items = append(items, XorPut{Dst: take(len(dst)), Src: take(len(src)), Data: data})
	})
	return items, nil
}

// serveXorPutMany handles one OpXorPutMany frame with one ReadBatch and
// one PutBatch. The ReadBatch callback XORs each lent source — verified
// by the store, as every read is — into the item's own data slice, which
// lives in the request payload, and keeps nothing it was lent; the
// PutBatch then stores the applied items, so the write meets the view's
// namespace and quota exactly as a PutMany would: a refusal refuses the
// whole frame and stores nothing. No buffer is allocated per block.
func serveXorPutMany(conn net.Conn, st store.Keyed, payload []byte) error {
	items, err := decodeXorPutMany(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	srcs := make([]string, len(items))
	written := make([]string, len(items))
	for k, it := range items {
		srcs[k], written[k] = it.Src, it.Dst
	}
	slices.Sort(written)
	frame := getBuf(1 + 4 + 4 + len(items))
	frame[0] = StatusOK
	binary.BigEndian.PutUint32(frame[1:], uint32(4+len(items)))
	binary.BigEndian.PutUint32(frame[5:], uint32(len(items)))
	applied := frame[9:]
	err = st.ReadBatch(srcs, func(blocks [][]byte) error {
		for k, src := range blocks {
			applied[k] = 0
			data := items[k].Data
			if _, clash := slices.BinarySearch(written, items[k].Src); src == nil || len(src) != len(data) || clash {
				continue
			}
			if err := xorblock.XorInto(data, data, src); err != nil {
				return err // unreachable: the lengths were checked
			}
			applied[k] = 1
		}
		return nil
	})
	if err != nil {
		putBuf(frame)
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	puts := make([]KV, 0, len(items))
	for k, it := range items {
		if applied[k] == 1 {
			puts = append(puts, KV{Key: it.Dst, Data: it.Data})
		}
	}
	if perr := st.PutBatch(puts); perr != nil {
		putBuf(frame)
		return writeResponse(conn, storeStatus(perr), []byte(perr.Error()))
	}
	_, err = conn.Write(frame)
	putBuf(frame)
	return err
}

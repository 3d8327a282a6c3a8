// Batch operations: OpPutMany and OpGetMany pack many blocks into the
// payload of one ordinary frame, so one request/response exchange moves a
// whole encode batch or repair round per storage node instead of one
// round-trip per block.
//
// Batch payload encoding (big endian, nested inside the normal frame):
//
//	putMany  := count(4) { keyLen(2) key dataLen(4) data }*
//	getManyQ := count(4) { keyLen(2) key }*
//	getManyR := count(4) { found(1) dataLen(4) data }*
//	statManyQ = getManyQ
//	statManyR := count(4) { held(1) }*
//
// count is capped at MaxBatchEntries and the whole payload at
// MaxPayloadLen (enforced by the framing layer); oversized or malformed
// batches earn a StatusError response, not a dropped connection.
package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"

	"aecodes/internal/store"
)

// MaxBatchEntries caps the number of blocks in one batch frame.
const MaxBatchEntries = 4096

// KV is one key/block pair of a PutMany batch — the repository-wide
// store.KV, so keyed backends and their adapters share one batch item
// type.
type KV = store.KV

// putMany is PoolClient.PutMany on one picked connection.
func putMany(ctx context.Context, c *pipeConn, items []KV) error {
	segs, arena, err := putManySegments(items)
	if err != nil {
		return err
	}
	status, resp, err := c.roundTripSegments(ctx, segs)
	// The write has completed (or failed) by the time the round-trip
	// returns, so the header arena can rejoin the frame pool either way.
	putBuf(arena)
	if err != nil {
		return err
	}
	return ackError(status, resp)
}

// putManySegments lays out an OpPutMany frame as scatter/gather segments:
// all headers live in one exactly-sized pooled arena, and every item's
// data slice is referenced in place. The arena never reallocates, so the
// returned segments stay valid; it is returned alongside them so the
// caller can recycle it once the frame has been written.
func putManySegments(items []KV) (net.Buffers, []byte, error) {
	if err := checkBatchCount(len(items)); err != nil {
		return nil, nil, err
	}
	payload := 4
	hdrSize := 1 + 2 + 4 + 4 // op, empty key, payload length, batch count
	for _, it := range items {
		if len(it.Key) > MaxKeyLen {
			return nil, nil, fmt.Errorf("transport: key too long (%d bytes)", len(it.Key))
		}
		payload += 2 + len(it.Key) + 4 + len(it.Data)
		hdrSize += 2 + len(it.Key) + 4
	}
	if payload > MaxPayloadLen {
		return nil, nil, fmt.Errorf("transport: batch payload too large (%d bytes)", payload)
	}
	arena := getBuf(hdrSize)[:0]
	segs := make(net.Buffers, 0, 1+2*len(items))
	mark := 0
	seal := func() {
		segs = append(segs, arena[mark:len(arena):len(arena)])
		mark = len(arena)
	}
	arena = append(arena, OpPutMany)
	arena = binary.BigEndian.AppendUint16(arena, 0)
	arena = binary.BigEndian.AppendUint32(arena, uint32(payload))
	arena = binary.BigEndian.AppendUint32(arena, uint32(len(items)))
	seal()
	for _, it := range items {
		arena = binary.BigEndian.AppendUint16(arena, uint16(len(it.Key)))
		arena = append(arena, it.Key...)
		arena = binary.BigEndian.AppendUint32(arena, uint32(len(it.Data)))
		seal()
		if len(it.Data) > 0 {
			segs = append(segs, it.Data)
		}
	}
	return segs, arena, nil
}

// getMany is PoolClient.GetMany on one picked connection.
func getMany(ctx context.Context, c *pipeConn, keys []string) ([][]byte, error) {
	payload, err := encodeGetManyReq(keys)
	if err != nil {
		return nil, err
	}
	status, resp, err := c.roundTrip(ctx, OpGetMany, "", payload)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, remoteError(status, resp)
	}
	blocks, err := decodeGetManyResp(resp)
	if err != nil {
		return nil, err
	}
	if len(blocks) != len(keys) {
		return nil, fmt.Errorf("transport: got %d batch entries, want %d", len(blocks), len(keys))
	}
	return blocks, nil
}

// servePutMany handles one OpPutMany frame on the server: one PutBatch
// call. The decoded items alias the pooled receive buffer, which
// serveConn recycles the moment the handler returns — store.Keyed's
// consume-before-return contract is what makes that safe.
func servePutMany(conn net.Conn, st store.Keyed, payload []byte) error {
	items, err := decodePutMany(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	if perr := st.PutBatch(items); perr != nil {
		return writeResponse(conn, storeStatus(perr), []byte(perr.Error()))
	}
	return writeResponse(conn, StatusOK, nil)
}

// serveGetMany handles one OpGetMany frame on the server. The response
// frame is written with vectored I/O so block contents are never copied
// into a contiguous response payload.
func serveGetMany(conn net.Conn, st store.Keyed, payload []byte) error {
	keys, err := decodeGetManyReq(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	blocks := st.GetBatch(keys)
	respPayload := 4
	for _, b := range blocks {
		respPayload += 1 + 4 + len(b)
	}
	if respPayload > MaxPayloadLen {
		return writeResponse(conn, StatusError,
			[]byte(fmt.Sprintf("transport: batch payload too large (%d bytes)", respPayload)))
	}
	hdrSize := 1 + 4 + 4 + len(blocks)*(1+4)
	arena := getBuf(hdrSize)[:0]
	segs := make(net.Buffers, 0, 1+2*len(blocks))
	mark := 0
	seal := func() {
		segs = append(segs, arena[mark:len(arena):len(arena)])
		mark = len(arena)
	}
	arena = append(arena, StatusOK)
	arena = binary.BigEndian.AppendUint32(arena, uint32(respPayload))
	arena = binary.BigEndian.AppendUint32(arena, uint32(len(blocks)))
	seal()
	for _, b := range blocks {
		if b == nil {
			arena = append(arena, 0)
			arena = binary.BigEndian.AppendUint32(arena, 0)
			seal()
			continue
		}
		arena = append(arena, 1)
		arena = binary.BigEndian.AppendUint32(arena, uint32(len(b)))
		seal()
		if len(b) > 0 {
			segs = append(segs, b)
		}
	}
	_, err = segs.WriteTo(conn)
	putBuf(arena) // the vectored write has consumed the header segments
	return err
}

// serveStatMany handles one OpStatMany frame: the request is a getManyQ
// key list, the response statManyR — one held/not byte per key, answered
// by one StatBatch call.
func serveStatMany(conn net.Conn, st store.Keyed, payload []byte) error {
	keys, err := decodeGetManyReq(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	held := make([]byte, len(keys))
	for i, n := range st.StatBatch(keys) {
		if n >= 0 {
			held[i] = 1
		}
	}
	resp := make([]byte, 0, 4+len(held))
	resp = binary.BigEndian.AppendUint32(resp, uint32(len(held)))
	resp = append(resp, held...)
	return writeResponse(conn, StatusOK, resp)
}

// statMany is PoolClient.StatMany on one picked connection.
func statMany(ctx context.Context, c *pipeConn, keys []string) ([]bool, error) {
	payload, err := encodeGetManyReq(keys)
	if err != nil {
		return nil, err
	}
	status, resp, err := c.roundTrip(ctx, OpStatMany, "", payload)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		rerr := remoteError(status, resp)
		putBuf(resp)
		return nil, rerr
	}
	held, err := decodeStatManyResp(resp)
	// decodeStatManyResp copies the flags out, so the response frame can
	// rejoin the pool even on a decode error (the error text is formatted
	// from counts, not aliases).
	putBuf(resp)
	if err != nil {
		return nil, err
	}
	if len(held) != len(keys) {
		return nil, fmt.Errorf("transport: got %d stat entries, want %d", len(held), len(keys))
	}
	return held, nil
}

func decodeStatManyResp(payload []byte) ([]bool, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != count {
		return nil, fmt.Errorf("transport: stat batch carries %d flags, want %d", len(rest), count)
	}
	held := make([]bool, count)
	for i, f := range rest {
		switch f {
		case 0:
		case 1:
			held[i] = true
		default:
			return nil, fmt.Errorf("transport: bad held flag %d", f)
		}
	}
	return held, nil
}

func checkBatchCount(n int) error {
	if n > MaxBatchEntries {
		return fmt.Errorf("transport: batch of %d entries exceeds limit %d", n, MaxBatchEntries)
	}
	return nil
}

func decodePutMany(payload []byte) ([]KV, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return nil, err
	}
	items := make([]KV, 0, count)
	for n := 0; n < count; n++ {
		var key string
		key, rest, err = takeKey(rest)
		if err != nil {
			return nil, err
		}
		var data []byte
		data, rest, err = takeBlock(rest)
		if err != nil {
			return nil, err
		}
		items = append(items, KV{Key: key, Data: data})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes in batch", len(rest))
	}
	return items, nil
}

func encodeGetManyReq(keys []string) ([]byte, error) {
	if err := checkBatchCount(len(keys)); err != nil {
		return nil, err
	}
	size := 4
	for _, k := range keys {
		if len(k) > MaxKeyLen {
			return nil, fmt.Errorf("transport: key too long (%d bytes)", len(k))
		}
		size += 2 + len(k)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
	}
	return buf, nil
}

func decodeGetManyReq(payload []byte) ([]string, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, count)
	for n := 0; n < count; n++ {
		var key string
		key, rest, err = takeKey(rest)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes in batch", len(rest))
	}
	return keys, nil
}

func decodeGetManyResp(payload []byte) ([][]byte, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, count)
	for n := 0; n < count; n++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("transport: truncated batch entry")
		}
		found := rest[0]
		rest = rest[1:]
		var data []byte
		data, rest, err = takeBlock(rest)
		if err != nil {
			return nil, err
		}
		switch found {
		case 0:
			if len(data) != 0 {
				return nil, fmt.Errorf("transport: missing batch entry carries %d bytes", len(data))
			}
		case 1:
			blocks[n] = data
		default:
			return nil, fmt.Errorf("transport: bad found flag %d", found)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes in batch", len(rest))
	}
	return blocks, nil
}

func batchHeader(payload []byte) (int, []byte, error) {
	if len(payload) < 4 {
		return 0, nil, fmt.Errorf("transport: batch payload too short (%d bytes)", len(payload))
	}
	count := binary.BigEndian.Uint32(payload)
	if count > MaxBatchEntries {
		return 0, nil, fmt.Errorf("transport: batch of %d entries exceeds limit %d", count, MaxBatchEntries)
	}
	return int(count), payload[4:], nil
}

func takeKey(rest []byte) (string, []byte, error) {
	if len(rest) < 2 {
		return "", nil, fmt.Errorf("transport: truncated batch key length")
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > MaxKeyLen {
		return "", nil, fmt.Errorf("transport: key length %d exceeds limit", n)
	}
	if len(rest) < n {
		return "", nil, fmt.Errorf("transport: truncated batch key")
	}
	return string(rest[:n]), rest[n:], nil
}

func takeBlock(rest []byte) ([]byte, []byte, error) {
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("transport: truncated batch block length")
	}
	n := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if n > MaxPayloadLen {
		return nil, nil, fmt.Errorf("transport: block length %d exceeds limit", n)
	}
	if uint32(len(rest)) < n {
		return nil, nil, fmt.Errorf("transport: truncated batch block")
	}
	return rest[:n], rest[n:], nil
}

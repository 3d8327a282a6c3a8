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
//	xorManyQ  = getManyQ with an even count, read as pairs (a, b)
//	xorManyR  = getManyR with one entry per pair: found=1 and a⊕b when
//	            both members are held at equal length, found=0 otherwise
//	xorPutManyQ := count(4) { dstKeyLen(2) dst srcKeyLen(2) src dataLen(4) data }*
//	xorPutManyR  = statManyR with one entry per item: 1 when the node
//	            stored dst = data ⊕ src, 0 when it holds no src at
//	            len(data) or the frame also writes src (see xorput.go)
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
	g := newGather(hdrSize, len(items))
	g.arena = append(g.arena, OpPutMany)
	g.arena = binary.BigEndian.AppendUint16(g.arena, 0)
	g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(payload))
	g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(items)))
	for _, it := range items {
		g.arena = appendKey(g.arena, it.Key)
		g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(it.Data)))
		g.block(it.Data)
	}
	return g.frame(), g.arena, nil
}

// gather lays a frame out as scatter/gather segments: every header byte
// goes into one exactly-sized pooled arena, which therefore never
// reallocates, and every block is referenced in place, never copied.
type gather struct {
	arena []byte
	segs  net.Buffers
	mark  int // arena bytes already closed into segments
}

// newGather returns a gather whose arena holds hdrSize header bytes and
// whose segment list has room for blocks blocks.
func newGather(hdrSize, blocks int) gather {
	return gather{arena: getBuf(hdrSize)[:0], segs: make(net.Buffers, 0, 1+2*blocks)}
}

// block closes the header bytes appended since the last block into one
// segment and references b after them.
func (g *gather) block(b []byte) {
	g.seal()
	if len(b) > 0 {
		g.segs = append(g.segs, b)
	}
}

// frame closes any trailing header bytes into a segment and returns the
// frame's segments.
func (g *gather) frame() net.Buffers {
	if g.mark < len(g.arena) {
		g.seal()
	}
	return g.segs
}

func (g *gather) seal() {
	g.segs = append(g.segs, g.arena[g.mark:len(g.arena):len(g.arena)])
	g.mark = len(g.arena)
}

// appendKey appends a length-prefixed key.
func appendKey(buf []byte, key string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	return append(buf, key...)
}

// getMany is PoolClient.GetMany on one picked connection.
func getMany(ctx context.Context, c *pipeConn, keys []string) ([][]byte, error) {
	return readMany(ctx, c, OpGetMany, keys, len(keys))
}

// readMany sends keys as a getManyQ under op and decodes the getManyR
// answer, which must carry want entries: one per key for OpGetMany, one
// per pair for OpXorMany.
func readMany(ctx context.Context, c *pipeConn, op byte, keys []string, want int) ([][]byte, error) {
	payload, err := encodeGetManyReq(keys)
	if err != nil {
		return nil, err
	}
	status, resp, err := c.roundTrip(ctx, op, "", payload)
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
	if len(blocks) != want {
		return nil, fmt.Errorf("transport: got %d batch entries, want %d", len(blocks), want)
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

// serveGetMany handles one OpGetMany frame on the server: one ReadBatch
// call, whose callback writes the response frame with vectored I/O
// straight from the blocks the store lends — no buffer per block, and
// no copy into a contiguous response payload.
func serveGetMany(conn net.Conn, st store.Keyed, payload []byte) error {
	keys, err := decodeGetManyReq(payload)
	if err != nil {
		return writeResponse(conn, StatusError, []byte(err.Error()))
	}
	return st.ReadBatch(keys, func(blocks [][]byte) error {
		respPayload := 4
		for _, b := range blocks {
			respPayload += 1 + 4 + len(b)
		}
		if respPayload > MaxPayloadLen {
			return writeResponse(conn, StatusError,
				[]byte(fmt.Sprintf("transport: batch payload too large (%d bytes)", respPayload)))
		}
		g := newGather(1+4+4+len(blocks)*(1+4), len(blocks))
		g.arena = append(g.arena, StatusOK)
		g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(respPayload))
		g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(blocks)))
		for _, b := range blocks {
			found := byte(0)
			if b != nil {
				found = 1
			}
			g.arena = append(g.arena, found)
			g.arena = binary.BigEndian.AppendUint32(g.arena, uint32(len(b)))
			g.block(b)
		}
		segs := g.frame()
		_, err := segs.WriteTo(conn)
		putBuf(g.arena) // the vectored write has consumed the header segments
		return err
	})
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
	return flagsResponse(status, resp, len(keys))
}

// flagsResponse decodes a statManyR answer that must carry want flags —
// StatMany's and XorPutMany's — and returns the response frame to the
// pool. decodeStatManyResp copies the flags out, so the frame can rejoin
// the pool even on a decode error (the error text is formatted from
// counts, not aliases).
func flagsResponse(status byte, resp []byte, want int) ([]bool, error) {
	if status != StatusOK {
		rerr := remoteError(status, resp)
		putBuf(resp)
		return nil, rerr
	}
	flags, err := decodeStatManyResp(resp)
	putBuf(resp)
	if err != nil {
		return nil, err
	}
	if len(flags) != want {
		return nil, fmt.Errorf("transport: got %d flags, want %d", len(flags), want)
	}
	return flags, nil
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
		buf = appendKey(buf, k)
	}
	return buf, nil
}

// decodeGetManyReq decodes a key list. The keys are substrings of one
// string copied from the payload, so a request costs the same two
// allocations whatever its key count; no store keeps a key it was only
// asked to read.
func decodeGetManyReq(payload []byte) ([]string, error) {
	count, rest, err := batchHeader(payload)
	if err != nil {
		return nil, err
	}
	all := string(rest)
	keys := make([]string, 0, count)
	for n := 0; n < count; n++ {
		var key []byte
		key, rest, err = takeKeyBytes(rest)
		if err != nil {
			return nil, err
		}
		end := len(all) - len(rest)
		keys = append(keys, all[end-len(key):end])
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

// takeKey splits one length-prefixed key off rest.
func takeKey(rest []byte) (string, []byte, error) {
	key, rest, err := takeKeyBytes(rest)
	return string(key), rest, err
}

// takeKeyBytes is takeKey with the key aliasing rest.
func takeKeyBytes(rest []byte) ([]byte, []byte, error) {
	if len(rest) < 2 {
		return nil, nil, fmt.Errorf("transport: truncated batch key length")
	}
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > MaxKeyLen {
		return nil, nil, fmt.Errorf("transport: key length %d exceeds limit", n)
	}
	if len(rest) < n {
		return nil, nil, fmt.Errorf("transport: truncated batch key")
	}
	return rest[:n], rest[n:], nil
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

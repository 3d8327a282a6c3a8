package transport

// Tests of the read path's buffers: the server serves OpGetMany from the
// blocks its store lends, and the client draws from the frame pool only
// the responses it recycles.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"aecodes/internal/obs"
)

// discardConn is a net.Conn that counts what is written to it and drops
// it.
type discardConn struct {
	net.Conn
	n int
}

func (c *discardConn) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// measureAllocs runs fn once to warm the pools, then reports the objects
// one call allocates and the bytes it allocates on average over ten
// calls — both with one P, so every call meets the pool slot the last
// one filled.
func measureAllocs(fn func()) (objects float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	objects = testing.AllocsPerRun(20, fn)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return objects, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestServeGetManyAllocatesNoRecordBuffers pins the server half of the
// read path over MemStore, which lends its stored blocks: serving 2 or
// 256 blocks of 64 KiB allocates the same handful of objects, and well
// under 1 % of the bytes it sends.
func TestServeGetManyAllocatesNoRecordBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	st := NewMemStore()
	block := make([]byte, 64<<10)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("blk-%03d", i)
		if err := st.Put(keys[i], block); err != nil {
			t.Fatal(err)
		}
	}
	objects := map[int]float64{}
	for _, n := range []int{2, 256} {
		req, err := encodeGetManyReq(keys[:n])
		if err != nil {
			t.Fatal(err)
		}
		var conn discardConn
		serve := func() {
			conn.n = 0
			if err := serveGetMany(&conn, st, req); err != nil {
				t.Fatal(err)
			}
			if want := 1 + 4 + 4 + n*(1+4+len(block)); conn.n != want {
				t.Fatalf("%d blocks: wrote %d response bytes, want %d", n, conn.n, want)
			}
		}
		var bytes uint64
		objects[n], bytes = measureAllocs(serve)
		if records := uint64(n * len(block)); bytes*100 >= records {
			t.Errorf("serving %d blocks allocates %d bytes a call, ≥ 1%% of the %d record bytes", n, bytes, records)
		}
	}
	if objects[2] != objects[256] {
		t.Errorf("serving 2 blocks allocates %v objects, 256 blocks %v: something is allocated per record", objects[2], objects[256])
	}
}

// TestEscapingResponsesSkipTheFramePool pins the client half: a GetMany
// response escapes to the caller, so it is allocated exact-size and takes
// nothing from the frame pool — the request frame is the only buffer the
// call draws — while a PutMany ack, recycled by its caller, still comes
// from the pool. The node is faked over a pipe with plain buffers, so the
// pool counters move for the client alone.
func TestEscapingResponsesSkipTheFramePool(t *testing.T) {
	frame := func(status byte, payload []byte) []byte {
		b := append([]byte{status}, binary.BigEndian.AppendUint32(nil, uint32(len(payload)))...)
		return append(b, payload...)
	}
	getManyResp := binary.BigEndian.AppendUint32(nil, 2)
	for i := 0; i < 2; i++ {
		getManyResp = append(getManyResp, 1)
		getManyResp = binary.BigEndian.AppendUint32(getManyResp, 4<<10)
		getManyResp = append(getManyResp, make([]byte, 4<<10)...)
	}
	answers := map[byte][]byte{
		OpGetMany: frame(StatusOK, getManyResp),
		OpPutMany: frame(StatusError, []byte("refused")),
	}

	cli, node := net.Pipe()
	defer node.Close()
	go func() {
		for {
			var head [3]byte
			if _, err := io.ReadFull(node, head[:]); err != nil {
				return
			}
			rest := make([]byte, int(binary.BigEndian.Uint16(head[1:]))+4)
			if _, err := io.ReadFull(node, rest); err != nil {
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(rest[len(rest)-4:]))
			if _, err := io.ReadFull(node, payload); err != nil {
				return
			}
			if _, err := node.Write(answers[head[0]]); err != nil {
				return
			}
		}
	}()
	pc := newPipeConn(cli, 0)
	defer pc.close()
	ctx := context.Background()

	pooled := func(op func()) (takes, unpooled int64) {
		before := obs.Default.Snapshot().Counters
		op()
		after := obs.Default.Snapshot().Counters
		delta := func(name string) int64 { return after["transport/"+name] - before["transport/"+name] }
		return delta("framepool.hit") + delta("framepool.miss"), delta("framepool.unpooled")
	}

	var blocks [][]byte
	takes, unpooled := pooled(func() {
		var err error
		if blocks, err = getMany(ctx, pc, []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	})
	if takes != 1 || unpooled != 0 {
		t.Errorf("GetMany took %d pooled and %d unpooled buffers, want 1 (its request frame) and 0", takes, unpooled)
	}
	if len(blocks) != 2 || len(blocks[1]) != 4<<10 || cap(blocks[1]) != len(blocks[1]) {
		t.Errorf("GetMany's last block has len %d, cap %d: the response is not exact-size", len(blocks[1]), cap(blocks[1]))
	}

	takes, unpooled = pooled(func() {
		if err := putMany(ctx, pc, []KV{{Key: "a", Data: []byte("x")}}); err == nil || errors.Is(err, errConnFault) {
			t.Fatalf("PutMany against a refusing node = %v, want its remote error", err)
		}
	})
	if takes != 2 || unpooled != 0 {
		t.Errorf("PutMany took %d pooled and %d unpooled buffers, want 2 (header arena and ack) and 0", takes, unpooled)
	}
}

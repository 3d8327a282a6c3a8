package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/xorblock"
)

// TestXorPutManyRoundTrip: over store.Mem and segstore, raw and through
// tenant views, an applied item leaves dst = data ⊕ src byte for byte,
// and an item whose src is missing, of another length, or written by the
// same frame answers false and leaves dst untouched. The caller's data
// slices come back unchanged.
func TestXorPutManyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	block := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for bname, backing := range xorBackends(t) {
		for vname, c := range serveViews(t, backing) {
			t.Run(bname+"/"+vname, func(t *testing.T) {
				a, big, short, kept := block(4<<10), block(64<<10), block(100), block(4<<10)
				if err := c.PutMany(bg, []KV{{Key: "a", Data: a}, {Key: "big", Data: big}, {Key: "short", Data: short}, {Key: "kept", Data: kept}}); err != nil {
					t.Fatal(err)
				}
				items := []XorPut{
					{Dst: "x-a", Src: "a", Data: block(4 << 10)},
					{Dst: "x-big", Src: "big", Data: block(64 << 10)},
					{Dst: "x-missing", Src: "missing", Data: block(4 << 10)},
					{Dst: "x-short", Src: "short", Data: block(4 << 10)},
					{Dst: "x-chained", Src: "x-a", Data: block(4 << 10)},
					{Dst: "kept", Src: "kept", Data: block(4 << 10)},
					{Dst: "x-empty", Src: "missing-too", Data: nil},
				}
				sent := make([][]byte, len(items))
				for k, it := range items {
					sent[k] = bytes.Clone(it.Data)
				}
				applied, err := c.XorPutMany(bg, items)
				if err != nil {
					t.Fatal(err)
				}
				want := []bool{true, true, false, false, false, false, false}
				if fmt.Sprint(applied) != fmt.Sprint(want) {
					t.Fatalf("applied %v, want %v", applied, want)
				}
				for k, it := range items {
					if !bytes.Equal(it.Data, sent[k]) {
						t.Fatalf("item %d: the caller's data slice was modified", k)
					}
				}
				got, err := c.GetMany(bg, []string{"x-a", "x-big", "x-missing", "x-short", "x-chained", "kept", "x-empty"})
				if err != nil {
					t.Fatal(err)
				}
				for k, src := range [][]byte{a, big} {
					if rebuilt, _ := xorblock.Xor(items[k].Data, src); !bytes.Equal(got[k], rebuilt) {
						t.Errorf("%s does not hold data ⊕ src", items[k].Dst)
					}
				}
				for k := 2; k < 7; k++ {
					if k == 5 {
						if !bytes.Equal(got[k], kept) {
							t.Error("an item that reads its own dst overwrote it")
						}
						continue
					}
					if got[k] != nil {
						t.Errorf("%s was written by a refused item", items[k].Dst)
					}
				}
			})
		}
	}
}

// TestXorPutManyCorruptSource: a segstore record corrupted at rest fails
// its check when the node reads it as a source, so the item answers false,
// dst stays unwritten, and the store drops the rotten key.
func TestXorPutManyCorruptSource(t *testing.T) {
	dir := t.TempDir()
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	c := dial(t, startServerOn(t, seg))
	victim := bytes.Repeat([]byte("victim!!"), 512)
	other := bytes.Repeat([]byte{0x5A}, len(victim))
	if err := c.PutMany(bg, []KV{{Key: "v", Data: victim}, {Key: "o", Data: other}}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		if off := bytes.Index(raw, victim); off >= 0 {
			f, err := os.OpenFile(name, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{raw[off+100] ^ 0xFF}, int64(off+100)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("victim record not found on disk")
	}
	applied, err := c.XorPutMany(bg, []XorPut{
		{Dst: "from-v", Src: "v", Data: make([]byte, len(victim))},
		{Dst: "from-o", Src: "o", Data: make([]byte, len(other))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied[0] || !applied[1] {
		t.Fatalf("applied %v, want [false true]: a corrupt source must not be XORed", applied)
	}
	if n := seg.StatBatch([]string{"from-v", "v", "from-o"}); n[0] != -1 || n[1] != -1 || n[2] != len(other) {
		t.Errorf("StatBatch(from-v, v, from-o) = %v, want [-1 -1 %d]: dst untouched, rot dropped, the intact item stored", n, len(other))
	}
}

// TestXorPutManyQuota: a tenant whose quota cannot take the whole batch
// gets a whole-batch StatusQuota — store.ErrQuotaExceeded at the client —
// nothing of the batch is written and the tenant's usage does not move.
func TestXorPutManyQuota(t *testing.T) {
	const size = 4 << 10
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{Tenants: map[string]tenant.Quota{"alice": {MaxBytes: 3 * size}}})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := reg.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, startServerOn(t, alice))
	if err := c.PutMany(bg, []KV{{Key: "src", Data: make([]byte, size)}}); err != nil {
		t.Fatal(err)
	}
	before := alice.Usage()
	_, err = c.XorPutMany(bg, []XorPut{
		{Dst: "d1", Src: "src", Data: make([]byte, size)},
		{Dst: "d2", Src: "src", Data: make([]byte, size)},
		{Dst: "d3", Src: "src", Data: make([]byte, size)},
	})
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("over-quota XorPutMany = %v, want store.ErrQuotaExceeded", err)
	}
	if got, _ := c.GetMany(bg, []string{"d1", "d2", "d3"}); got[0] != nil || got[1] != nil || got[2] != nil {
		t.Error("a refused batch wrote blocks")
	}
	if after := alice.Usage(); after != before {
		t.Errorf("usage moved from %+v to %+v on a refused batch", before, after)
	}
	// Two fit.
	if applied, err := c.XorPutMany(bg, []XorPut{{Dst: "d1", Src: "src", Data: make([]byte, size)}, {Dst: "d2", Src: "src", Data: make([]byte, size)}}); err != nil || !applied[0] || !applied[1] {
		t.Fatalf("in-quota XorPutMany = %v, %v", applied, err)
	}
}

// xorPutFrame encodes an xorPutManyQ payload for items, as a client sends
// it.
func xorPutFrame(t testing.TB, items []XorPut) []byte {
	t.Helper()
	segs, arena, err := xorPutManySegments(items)
	if err != nil {
		t.Fatal(err)
	}
	defer putBuf(arena)
	return bytes.Join(segs, nil)[1+2+4:]
}

// TestXorPutManyRefusals: truncated, overcounted, trailing and oversized
// frames each earn a StatusError and the connection goes on serving; the
// client refuses a key too long before touching the wire.
func TestXorPutManyRefusals(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.XorPutMany(bg, []XorPut{{Dst: string(make([]byte, MaxKeyLen+1)), Src: "s"}}); err == nil {
		t.Error("client sent a key longer than MaxKeyLen")
	}
	pc, err := c.pick()
	if err != nil {
		t.Fatal(err)
	}
	good := xorPutFrame(t, []XorPut{{Dst: "d", Src: "s", Data: []byte("data")}})
	over := binary.BigEndian.AppendUint32(nil, MaxBatchEntries+1)
	for name, payload := range map[string][]byte{
		"empty":          nil,
		"truncated data": good[:len(good)-1],
		"overcount":      append(binary.BigEndian.AppendUint32(nil, 2), good[4:]...),
		"trailing bytes": append(bytes.Clone(good), 0),
		"too many items": over,
	} {
		status, resp, err := pc.roundTrip(bg, OpXorPutMany, "", payload)
		if err != nil {
			t.Fatalf("%s: connection died: %v", name, err)
		}
		if status != StatusError {
			t.Errorf("%s: status %d (%q), want StatusError", name, status, resp)
		}
	}
	if err := c.Put(bg, "alive", []byte("yes")); err != nil {
		t.Fatalf("connection unusable after refused XorPutMany frames: %v", err)
	}
}

// putsDiscarded is a store.Mem whose PutBatch keeps nothing, so a handler's
// own allocations are all an allocation count sees.
type putsDiscarded struct{ *store.Mem }

func (putsDiscarded) PutBatch([]KV) error { return nil }

// TestServeXorPutManyAllocatesNoBlockBuffers: serving 2 or 256 items of
// 64 KiB allocates the same handful of objects — each source is XORed
// into the request's own data slice — and well under 1 % of the bytes it
// rebuilds.
func TestServeXorPutManyAllocatesNoBlockBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	st := putsDiscarded{store.NewMem()}
	block := make([]byte, 64<<10)
	items := make([]XorPut, 256)
	for i := range items {
		src := fmt.Sprintf("src-%03d", i)
		block[0] = byte(i)
		if err := st.Put(src, block); err != nil {
			t.Fatal(err)
		}
		items[i] = XorPut{Dst: fmt.Sprintf("dst-%03d", i), Src: src, Data: block}
	}
	objects := map[int]float64{}
	for _, n := range []int{2, 256} {
		req := xorPutFrame(t, items[:n])
		payload := make([]byte, len(req))
		var conn discardConn
		serve := func() {
			copy(payload, req) // the handler XORs into the payload, as into a receive buffer
			conn.n = 0
			if err := serveXorPutMany(&conn, st, payload); err != nil {
				t.Fatal(err)
			}
			if want := 1 + 4 + 4 + n; conn.n != want {
				t.Fatalf("%d items: wrote %d response bytes, want %d", n, conn.n, want)
			}
		}
		var bytes uint64
		objects[n], bytes = measureAllocs(serve)
		if rebuilt := uint64(n * len(block)); bytes*100 >= rebuilt {
			t.Errorf("serving %d items allocates %d bytes a call, ≥ 1%% of the %d bytes rebuilt", n, bytes, rebuilt)
		}
	}
	if objects[2] != objects[256] {
		t.Errorf("serving 2 items allocates %v objects, 256 items %v: something is allocated per block", objects[2], objects[256])
	}
}

// readCounter is a store.Mem that counts how often ReadBatch is asked for
// each key.
type readCounter struct {
	*store.Mem
	reads map[string]int
}

func (r *readCounter) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	for _, k := range keys {
		r.reads[k]++
	}
	return r.Mem.ReadBatch(keys, fn)
}

// TestServeXorPutManyReadsSharedSourceOnce: a frame whose two items name
// one source reads it once and applies both, each from its own data.
func TestServeXorPutManyReadsSharedSourceOnce(t *testing.T) {
	st := &readCounter{Mem: store.NewMem(), reads: make(map[string]int)}
	src, other := []byte{0xf0, 0x0f, 0xff}, []byte{1, 2, 3}
	if err := st.Put("src", src); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("other", other); err != nil {
		t.Fatal(err)
	}
	items := []XorPut{
		{Dst: "left", Src: "src", Data: []byte{1, 1, 1}},
		{Dst: "solo", Src: "other", Data: []byte{4, 4, 4}},
		{Dst: "right", Src: "src", Data: []byte{2, 2, 2}},
	}
	want := make(map[string][]byte)
	for _, it := range items {
		b := bytes.Clone(it.Data)
		stored, _ := st.Get(it.Src)
		xorblock.XorInto(b, b, stored)
		want[it.Dst] = b
	}
	var conn discardConn
	if err := serveXorPutMany(&conn, st, xorPutFrame(t, items)); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 4 + 4 + len(items); conn.n != want {
		t.Fatalf("wrote %d response bytes, want %d", conn.n, want)
	}
	if st.reads["src"] != 1 || st.reads["other"] != 1 {
		t.Errorf("ReadBatch was asked for src %d times and other %d, want each once", st.reads["src"], st.reads["other"])
	}
	for dst, b := range want {
		if got, ok := st.Get(dst); !ok || !bytes.Equal(got, b) {
			t.Errorf("%s = %x (present %v), want %x", dst, got, ok, b)
		}
	}
}

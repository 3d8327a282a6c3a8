package transport

import (
	"bytes"
	"encoding/binary"
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

// xorBackends returns a fresh store.Mem and a fresh segstore, by name.
func xorBackends(t *testing.T) map[string]tenant.Backing {
	t.Helper()
	seg, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	return map[string]tenant.Backing{"memstore": store.NewMem(), "segstore": seg}
}

// serveViews serves backing raw, through its anonymous tenant view, and
// through a named tenant's view, and returns a client of each by name.
func serveViews(t *testing.T, backing tenant.Backing) map[string]*PoolClient {
	t.Helper()
	reg, err := tenant.NewRegistry(backing, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	anon, err := reg.Open(tenant.Anonymous)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := reg.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PoolClient{
		"raw":       dial(t, startServerOn(t, backing)),
		"anonymous": dial(t, startServerOn(t, anon)),
		"alice":     dial(t, startServerOn(t, alice)),
	}
}

// TestXorManyMatchesClientXor: over store.Mem and segstore, raw and through
// tenant views, XorMany answers each pair with exactly the bytes a client
// XOR of the two GetMany blocks gives, and nil for a pair with a member
// missing or of another length.
func TestXorManyMatchesClientXor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	block := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for bname, backing := range xorBackends(t) {
		for vname, c := range serveViews(t, backing) {
			t.Run(bname+"/"+vname, func(t *testing.T) {
				items := []KV{
					{Key: "a", Data: block(4 << 10)},
					{Key: "b", Data: block(4 << 10)},
					{Key: "c", Data: block(64 << 10)},
					{Key: "d", Data: block(64 << 10)},
					{Key: "short", Data: block(100)},
					{Key: "e0", Data: []byte{}},
					{Key: "e1", Data: []byte{}},
				}
				if err := c.PutMany(bg, items); err != nil {
					t.Fatal(err)
				}
				keys := []string{"a", "b", "c", "d", "b", "a", "a", "missing", "missing", "c", "c", "short", "e0", "e1"}
				got, err := c.XorMany(bg, keys)
				if err != nil {
					t.Fatal(err)
				}
				blocks, err := c.GetMany(bg, keys)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(keys)/2 {
					t.Fatalf("XorMany returned %d entries for %d pairs", len(got), len(keys)/2)
				}
				for k := range got {
					a, b := blocks[2*k], blocks[2*k+1]
					if a == nil || b == nil || len(a) != len(b) {
						if got[k] != nil {
							t.Errorf("pair %d (%s, %s) with a missing or short member answered %d bytes, want nil", k, keys[2*k], keys[2*k+1], len(got[k]))
						}
						continue
					}
					want, err := xorblock.Xor(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if got[k] == nil || !bytes.Equal(got[k], want) {
						t.Errorf("pair %d (%s, %s): node XOR differs from the client's", k, keys[2*k], keys[2*k+1])
					}
				}
			})
		}
	}
}

// TestXorManyCorruptMember: a segstore record corrupted at rest fails its
// CRC on the node, so a pair that needs it answers nil — the node never
// XORs unverified bytes into an answer.
func TestXorManyCorruptMember(t *testing.T) {
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
	// Flip a byte inside the victim's payload on disk.
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
	got, err := c.XorMany(bg, []string{"v", "o", "o", "o"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != nil {
		t.Errorf("pair with a corrupt member answered %d bytes, want nil", len(got[0]))
	}
	if got[1] == nil || !xorblock.IsZero(got[1]) || len(got[1]) != len(other) {
		t.Errorf("intact pair (o, o) answered %d bytes, want %d zero bytes", len(got[1]), len(other))
	}
}

// TestXorManyRefusals: an odd key count, more than MaxBatchEntries keys and
// an answer larger than MaxPayloadLen each earn a StatusError, and the
// connection goes on serving. The client refuses an odd count itself.
func TestXorManyRefusals(t *testing.T) {
	st, addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.XorMany(bg, []string{"a", "b", "c"}); err == nil {
		t.Error("client sent an odd key count")
	}
	pc, err := c.pick()
	if err != nil {
		t.Fatal(err)
	}
	odd, err := encodeGetManyReq([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	over := binary.BigEndian.AppendUint32(nil, MaxBatchEntries+2)
	for i := 0; i < MaxBatchEntries+2; i++ {
		over = binary.BigEndian.AppendUint16(over, 1)
		over = append(over, 'k')
	}
	for name, payload := range map[string][]byte{"odd count": odd, "too many keys": over} {
		status, resp, err := pc.roundTrip(bg, OpXorMany, "", payload)
		if err != nil {
			t.Fatalf("%s: connection died: %v", name, err)
		}
		if status != StatusError {
			t.Errorf("%s: status %d (%q), want StatusError", name, status, resp)
		}
	}

	// Four complete pairs of 17 MiB answer 68 MiB. The store lends one
	// block for every key, so the test holds only one.
	big := make([]byte, 17<<20)
	lender := lendingStore{Mem: st, block: big}
	req, err := encodeGetManyReq([]string{"1", "2", "3", "4", "5", "6", "7", "8"})
	if err != nil {
		t.Fatal(err)
	}
	var conn captureConn
	if err := serveXorMany(&conn, lender, req); err != nil {
		t.Fatal(err)
	}
	if len(conn.out) == 0 || conn.out[0] != StatusError {
		t.Errorf("a 68 MiB answer was not refused: %d bytes written", len(conn.out))
	}

	if err := c.Put(bg, "alive", []byte("yes")); err != nil {
		t.Fatalf("connection unusable after refused XorMany frames: %v", err)
	}
}

// lendingStore lends block for every key it is asked to read.
type lendingStore struct {
	*store.Mem
	block []byte
}

func (s lendingStore) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	blocks := make([][]byte, len(keys))
	for i := range blocks {
		blocks[i] = s.block
	}
	return fn(blocks)
}

// TestServeXorManyAllocatesNoBlockBuffers: serving 2 or 256 pairs of
// 64 KiB from store.Mem allocates the same handful of objects — the answer
// is XORed into one pooled frame — and well under 1 % of the bytes it
// sends.
func TestServeXorManyAllocatesNoBlockBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	st := store.NewMem()
	block := make([]byte, 64<<10)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("blk-%03d", i)
		block[0] = byte(i)
		if err := st.Put(keys[i], block); err != nil {
			t.Fatal(err)
		}
	}
	objects := map[int]float64{}
	for _, pairs := range []int{2, 256} {
		req, err := encodeGetManyReq(keys[:2*pairs])
		if err != nil {
			t.Fatal(err)
		}
		var conn discardConn
		serve := func() {
			conn.n = 0
			if err := serveXorMany(&conn, st, req); err != nil {
				t.Fatal(err)
			}
			if want := 1 + 4 + 4 + pairs*(1+4+len(block)); conn.n != want {
				t.Fatalf("%d pairs: wrote %d response bytes, want %d", pairs, conn.n, want)
			}
		}
		var bytes uint64
		objects[pairs], bytes = measureAllocs(serve)
		if sent := uint64(pairs * len(block)); bytes*100 >= sent {
			t.Errorf("serving %d pairs allocates %d bytes a call, ≥ 1%% of the %d bytes sent", pairs, bytes, sent)
		}
	}
	if objects[2] != objects[256] {
		t.Errorf("serving 2 pairs allocates %v objects, 256 pairs %v: something is allocated per block", objects[2], objects[256])
	}
}

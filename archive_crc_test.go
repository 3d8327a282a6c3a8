package aecodes_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"aecodes"
)

// castagnoli is hash/crc32's CRC32-C table, the reference the archive
// framing is pinned to.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the v2 block checksum computed with hash/crc32: the first
// header word, then the payload.
func frameCRC(raw []byte, n int) uint32 {
	return crc32.Update(crc32.Checksum(raw[0:4], castagnoli), castagnoli, raw[8:8+n])
}

// TestArchiveFramingMatchesHashCRC32 pins the v2 framing's checksum in
// both directions: blocks framed with hash/crc32 read back through
// OpenArchive, and every block an ArchiveWriter frames carries the
// CRC32-C hash/crc32 computes. The block size and lengths put payloads
// on both sides of the CRC kernel's 256-byte floor and its 16-byte
// steps.
func TestArchiveFramingMatchesHashCRC32(t *testing.T) {
	const blockSize = 4 << 10
	newCode := func() *aecodes.Code {
		code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	rng := rand.New(rand.NewSource(38))
	for _, size := range []int{0, 255, 256, 257, 3*(blockSize-8) + 263} {
		payload := make([]byte, size)
		rng.Read(payload)

		code, st := newCode(), aecodes.NewMemoryStore(blockSize)
		writeFramedArchive(t, code, st, payload, 8, func(raw []byte, n int, last bool) {
			hdr := uint32(n) | 1<<30
			if last {
				hdr |= 1 << 31
			}
			binary.BigEndian.PutUint32(raw[0:4], hdr)
			binary.BigEndian.PutUint32(raw[4:8], frameCRC(raw, n))
		})
		got, err := io.ReadAll(aecodes.OpenArchive(code, st))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes framed with hash/crc32: read %d bytes, %v", size, len(got), err)
		}

		st = aecodes.NewMemoryStore(blockSize)
		w, err := aecodes.NewArchiveWriter(newCode(), st, aecodes.ArchiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= w.Blocks(); i++ {
			raw, err := st.GetData(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			n := int(binary.BigEndian.Uint32(raw[0:4]) & (1<<30 - 1))
			if got, want := binary.BigEndian.Uint32(raw[4:8]), frameCRC(raw, n); got != want {
				t.Fatalf("%d bytes: writer framed block %d with CRC %08x, hash/crc32 says %08x", size, i, got, want)
			}
		}
	}
}

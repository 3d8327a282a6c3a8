package segstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// castagnoli is hash/crc32's CRC32-C table: the reference the format
// tests recompute checksums with, and what the rot tests forge them
// with, independently of the store's own CRC32-C.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TestFormatCRCsMatchHashCRC32 pins the on-disk checksums: it writes
// records of sizes around the CRC kernel's boundaries, a tombstone and a
// sealed segment, then parses the segment files raw and recomputes
// every record's CRC32-C, and every footer's, with hash/crc32.
func TestFormatCRCsMatchHashCRC32(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	want := map[string][]byte{}
	put := func(size int) {
		key := fmt.Sprintf("k-%d", size)
		data := make([]byte, size)
		rng.Read(data)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		want[key] = data
	}
	for _, size := range []int{255, 256, 257, 4<<10 - 1, 4 << 10, 4<<10 + 1, 64<<10 + 13} {
		put(size)
	}
	s.Del("k-256")
	put(1<<20 + 255) // seals the segment holding the records above
	put(0)           // seals the one holding the 1 MiB record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string][]byte{}
	var footers, tombstones int
	for _, path := range segs {
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recEnd := len(seg)
		if n := len(seg); n >= footerTrailerLen && binary.BigEndian.Uint32(seg[n-4:]) == footerMagic {
			tr := seg[n-footerTrailerLen:]
			recEnd = n - footerTrailerLen - int(binary.BigEndian.Uint64(tr[0:8]))
			crc := crc32.Update(crc32.Checksum(seg[recEnd:n-footerTrailerLen], castagnoli), castagnoli, tr[0:8])
			if crc != binary.BigEndian.Uint32(tr[8:12]) {
				t.Fatalf("%s: footer CRC %08x, hash/crc32 says %08x", path, binary.BigEndian.Uint32(tr[8:12]), crc)
			}
			footers++
		}
		for off := 0; off < recEnd; {
			word0 := binary.BigEndian.Uint32(seg[off:])
			keyLen := int(binary.BigEndian.Uint16(seg[off+recHeaderLen:]))
			end := off + recHeaderLen + 2 + keyLen + int(word0&recLenMask)
			if word0&recVersion == 0 || end > recEnd {
				t.Fatalf("%s: no record at %d", path, off)
			}
			rec := seg[off:end]
			crc := crc32.Update(crc32.Checksum(rec[0:4], castagnoli), castagnoli, rec[recHeaderLen:])
			key := string(rec[recHeaderLen+2 : recHeaderLen+2+keyLen])
			if got := binary.BigEndian.Uint32(rec[4:8]); got != crc {
				t.Fatalf("%s: record %q CRC %08x, hash/crc32 says %08x", path, key, got, crc)
			}
			if word0&recTombstone != 0 {
				tombstones++
			} else {
				seen[key] = rec[recHeaderLen+2+keyLen:]
			}
			off = end
		}
	}
	if footers < 2 || tombstones != 1 {
		t.Fatalf("checked %d footers and %d tombstones, want at least 2 and 1", footers, tombstones)
	}
	for key, data := range want {
		if !bytes.Equal(seen[key], data) {
			t.Fatalf("record %q not found intact in the segment files", key)
		}
	}
}

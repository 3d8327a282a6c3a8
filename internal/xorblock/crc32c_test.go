package xorblock

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// crc32cPath names the path CRC32C takes on this machine and build.
func crc32cPath() string {
	if hasCRC32CFold {
		return "VPCLMULQDQ folding kernel from 256 B, hash/crc32 for the rest"
	}
	return "hash/crc32 only"
}

// checkCRC32C fails t unless CRC32C(init, p) is hash/crc32's answer.
func checkCRC32C(t *testing.T, init uint32, p []byte, what string) {
	t.Helper()
	if got, want := CRC32C(init, p), crc32.Update(init, castagnoli, p); got != want {
		t.Fatalf("%s: CRC32C(%#08x, %d bytes) = %#08x, hash/crc32 says %#08x", what, init, len(p), got, want)
	}
}

// TestCRC32CMatchesHashCRC32 holds CRC32C to hash/crc32 over every
// length up to 1 KiB at every offset within a cache line, the lengths
// around the kernel's 256-byte floor and block sizes the stores use,
// random initial CRCs, and all-zero and all-0xff blocks.
func TestCRC32CMatchesHashCRC32(t *testing.T) {
	t.Logf("CRC32C path: %s", crc32cPath())
	rng := rand.New(rand.NewSource(38))
	buf := make([]byte, 1<<20+255+64)
	rng.Read(buf)
	for n := 0; n <= 1024; n++ {
		for off := 0; off < 64; off++ {
			checkCRC32C(t, rng.Uint32(), buf[off:off+n], "random bytes")
		}
	}
	zeros := make([]byte, len(buf))
	ones := bytes.Repeat([]byte{0xff}, len(buf))
	for _, n := range []int{255, 256, 257, 4<<10 - 1, 4 << 10, 4<<10 + 1, 64<<10 + 13, 1<<20 + 255} {
		for _, off := range []int{0, 1, 8, 63} {
			for _, init := range []uint32{0, 0xffffffff, rng.Uint32()} {
				checkCRC32C(t, init, buf[off:off+n], "random bytes")
				checkCRC32C(t, init, zeros[off:off+n], "all-zero block")
				checkCRC32C(t, init, ones[off:off+n], "all-0xff block")
			}
		}
	}
}

// FuzzCRC32C holds CRC32C to hash/crc32 on fuzzer-chosen bytes, initial
// CRC and base-pointer offset, whole and split in two at a
// data-chosen point (so the kernel's bulk and the tail meet anywhere).
func FuzzCRC32C(f *testing.F) {
	f.Logf("CRC32C path: %s", crc32cPath())
	f.Add([]byte("crc"), uint32(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 256), uint32(0xffffffff), uint8(1))
	f.Add(bytes.Repeat([]byte("segstore record "), 33), uint32(0x12345678), uint8(7))
	f.Add(bytes.Repeat([]byte{0, 0xff, 3}, 1400), uint32(1), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, init uint32, offset uint8) {
		off := int(offset) % 64
		p := make([]byte, off+len(data))[off:]
		copy(p, data)
		checkCRC32C(t, init, p, "whole")
		if len(p) == 0 {
			return
		}
		cut := int(p[0]) * len(p) / 256
		if got, want := CRC32C(CRC32C(init, p[:cut]), p[cut:]), crc32.Update(init, castagnoli, p); got != want {
			t.Fatalf("split at %d of %d bytes: CRC32C = %#08x, hash/crc32 says %#08x", cut, len(p), got, want)
		}
	})
}

// crcSink keeps BenchmarkCRC32C's results live.
var crcSink uint32

// BenchmarkCRC32C runs CRC32C beside hash/crc32 on blocks that stay in
// cache (hot) and on 1 MiB blocks taken in turn from a ring larger than
// L2 (cold).
func BenchmarkCRC32C(b *testing.B) {
	b.Logf("CRC32C path: %s", crc32cPath())
	impls := []struct {
		name string
		fn   func(uint32, []byte) uint32
	}{
		{"CRC32C", CRC32C},
		{"hash-crc32", func(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }},
	}
	run := func(name string, size, ring int) {
		buf := make([]byte, ring)
		rand.New(rand.NewSource(1)).Read(buf)
		for _, im := range impls {
			b.Run(name+"/"+im.name, func(b *testing.B) {
				b.SetBytes(int64(size))
				var crc uint32
				for i, at := 0, 0; i < b.N; i++ {
					crc = im.fn(crc, buf[at:at+size])
					if at += size; at == ring {
						at = 0
					}
				}
				crcSink = crc
			})
		}
	}
	run("4KiB", 4<<10, 4<<10)
	run("64KiB", 64<<10, 64<<10)
	run("1MiB", 1<<20, 1<<20)
	run("1MiB-cold", 1<<20, 64<<20)
}

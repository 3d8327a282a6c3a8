package xorblock

import "hash/crc32"

// castagnoli is hash/crc32's CRC32-C table. hash/crc32 is the reference
// CRC32C is tested against and the path for everything the folding
// kernel does not take: tails, short buffers, CPUs without the kernel's
// extensions, and builds without assembly.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32cFoldMin is the shortest buffer the folding kernel takes: one
// load of its four 512-bit accumulators.
const crc32cFoldMin = 256

// CRC32C returns the CRC32-C (Castagnoli) of p continued from crc:
// exactly what crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p)
// returns, so CRC32C(0, p) is crc32.Checksum(p, castagnoli). On amd64
// CPUs with AVX-512F/BW/VL, VPCLMULQDQ and PCLMULQDQ, the bulk of a
// buffer of at least 256 bytes, taken in multiples of 16, goes through
// a carry-less-multiply folding kernel; the rest goes through
// hash/crc32.
func CRC32C(crc uint32, p []byte) uint32 {
	if hasCRC32CFold && len(p) >= crc32cFoldMin {
		n := len(p) &^ 15
		crc = ^crc32cFold(^crc, p[:n])
		p = p[n:]
	}
	if len(p) == 0 {
		return crc
	}
	return crc32.Update(crc, castagnoli, p)
}

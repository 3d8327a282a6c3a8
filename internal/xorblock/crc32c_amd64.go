//go:build !purego

package xorblock

// hasCRC32CFold reports the folding kernel usable, from detectCPU.
var hasCRC32CFold bool

// crc32cFold returns the CRC32-C state after p, from state crc, both
// bit-inverted as hash/crc32's ieeeCLMUL takes and returns them.
// len(p) must be at least crc32cFoldMin and a multiple of 16.
//
//go:noescape
func crc32cFold(crc uint32, p []byte) uint32

// crc32cConstsLen is the number of 64-bit constants crc32cFold reads.
const crc32cConstsLen = 37

// crc32cConsts returns the kernel's constant table (crc32c_amd64.s has
// its layout), for the test that derives it from the polynomial.
func crc32cConsts() *[crc32cConstsLen]uint64

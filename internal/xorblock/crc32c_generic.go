//go:build purego || !amd64

package xorblock

// No folding kernel in this build: CRC32C is hash/crc32 throughout.
const hasCRC32CFold = false

func crc32cFold(crc uint32, p []byte) uint32 {
	panic("xorblock: no CRC32-C folding kernel in this build")
}

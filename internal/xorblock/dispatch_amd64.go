//go:build !purego

package xorblock

import "os"

// Runtime kernel dispatch for amd64. The ladder, fastest first, is
// avx512 → avx2 → unsafe8x; init probes CPUID (kernel_amd64.s carries
// the raw CPUID/XGETBV stubs so no x/sys dependency is needed) and
// installs the best rung, unless AECODES_XORKERNEL pins a lower one.
//
// The assembly kernels only ever see a byte count that is a whole
// number of their chunk size; the Go wrappers below split off the
// ragged tail and unaligned remainder and finish it with the unsafe
// kernel, keeping the asm free of scalar edge cases (and keeping
// XorManyInto's one-pass-over-dst shape: each chunk of dst is written
// exactly once, after every source has been folded into the registers).

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the XSAVE feature-enabled mask.
func xgetbv0() (eax, edx uint32)

var (
	hasAVX2   bool
	hasAVX512 bool
)

// detectCPU probes CPUID for the vector extensions the asm kernels
// need: AVX2 and AVX-512 for the XOR ladder, and AVX-512 with
// VPCLMULQDQ and PCLMULQDQ (clmul512) for the CRC32-C folding kernel.
// OS support must be checked too: a kernel that does not enable AVX (or
// AVX-512) XSAVE state leaves the CPUID feature flags set, so the XCR0
// state bits and the feature bits must both agree.
func detectCPU() (avx2, avx512, clmul512 bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false, false, false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		pclmulqdqBit = 1 << 1
		osxsaveBit   = 1 << 27
		avxBit       = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false, false
	}
	xlo, _ := xgetbv0()
	const ymmState = 0x6 // XCR0: XMM (bit 1) and YMM (bit 2) state enabled
	if xlo&ymmState != ymmState {
		return false, false, false
	}
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	avx2 = ebx7&(1<<5) != 0
	const zmmState = 0xe0 // XCR0: opmask (bit 5), ZMM_Hi256 (6), Hi16_ZMM (7)
	const (
		avx512f  = 1 << 16
		avx512bw = 1 << 30
		avx512vl = 1 << 31
	)
	if xlo&zmmState == zmmState {
		// Only F is used below, but requiring BW+VL too filters out the
		// first-generation parts whose 512-bit pipelines downclock hard
		// enough to lose to AVX2.
		avx512 = ebx7&avx512f != 0 && ebx7&avx512bw != 0 && ebx7&avx512vl != 0
	}
	const vpclmulqdqBit = 1 << 10 // leaf 7, ECX
	clmul512 = avx512 && ecx7&vpclmulqdqBit != 0 && ecx1&pclmulqdqBit != 0
	return avx2, avx512, clmul512
}

func init() {
	hasAVX2, hasAVX512, hasCRC32CFold = detectCPU()
	selectKernel(os.Getenv(KernelEnv))
}

// selectKernel installs the fastest kernel the CPU supports, or the
// rung named by force. Forcing a kernel the CPU cannot run (or an
// unknown name) degrades to the best available rather than failing, so
// one CI env setting works across heterogeneous runners.
func selectKernel(force string) {
	avx2, avx512 := hasAVX2, hasAVX512
	switch force {
	case "generic":
		install(genericKernel)
		return
	case "unsafe8x":
		avx2, avx512 = false, false
	case "avx2":
		avx512 = false
	}
	switch {
	case avx512:
		install(avx512Kernel)
	case avx2:
		install(avx2Kernel)
	default:
		install(unsafeKernel)
	}
}

func availableKernels() []Kernel {
	ks := []Kernel{genericKernel, unsafeKernel}
	if hasAVX2 {
		ks = append(ks, avx2Kernel)
	}
	if hasAVX512 {
		ks = append(ks, avx512Kernel)
	}
	return ks
}

var (
	avx2Kernel   = Kernel{name: "avx2", words: xorWordsAVX2Full, many: xorManyAVX2Full}
	avx512Kernel = Kernel{name: "avx512", words: xorWordsAVX512Full, many: xorManyAVX512Full}
)

// Assembly entry points (kernel_amd64.s). n must be a positive multiple
// of the kernel's chunk size.

//go:noescape
func xorWordsAVX2(dst, a, b *byte, n int)

//go:noescape
func xorManyAVX2(dst *byte, srcs **byte, nsrc, n int)

//go:noescape
func xorWordsAVX512(dst, a, b *byte, n int)

//go:noescape
func xorManyAVX512(dst *byte, srcs **byte, nsrc, n int)

const (
	chunkAVX2   = 128 // 4 × 32-byte YMM registers per loop iteration
	chunkAVX512 = 256 // 4 × 64-byte ZMM registers per loop iteration
)

func xorWordsAVX2Full(dst, a, b []byte) {
	n := len(a)
	m := n &^ (chunkAVX2 - 1)
	if m > 0 {
		xorWordsAVX2(&dst[0], &a[0], &b[0], m)
	}
	if m < n {
		xorWordsUnsafe(dst[m:], a[m:], b[m:])
	}
}

func xorWordsAVX512Full(dst, a, b []byte) {
	n := len(a)
	m := n &^ (chunkAVX512 - 1)
	if m > 0 {
		xorWordsAVX512(&dst[0], &a[0], &b[0], m)
	} else {
		// Too short for a single ZMM sweep; a 128-byte AVX2 chunk may
		// still fit before the unsafe tail.
		xorWordsAVX2Full(dst, a, b)
		return
	}
	if m < n {
		xorWordsUnsafe(dst[m:], a[m:], b[m:])
	}
}

func xorManyAVX2Full(dst []byte, srcs [][]byte) {
	n := len(dst)
	m := n &^ (chunkAVX2 - 1)
	if m == 0 || len(srcs) > maxFold {
		xorManyUnsafe(dst, srcs)
		return
	}
	var ptrs [maxFold]*byte
	for i := range srcs {
		ptrs[i] = &srcs[i][0]
	}
	xorManyAVX2(&dst[0], &ptrs[0], len(srcs), m)
	if m < n {
		xorManyTail(dst, srcs, m)
	}
}

func xorManyAVX512Full(dst []byte, srcs [][]byte) {
	n := len(dst)
	m := n &^ (chunkAVX512 - 1)
	if m == 0 || len(srcs) > maxFold {
		xorManyAVX2Full(dst, srcs)
		return
	}
	var ptrs [maxFold]*byte
	for i := range srcs {
		ptrs[i] = &srcs[i][0]
	}
	xorManyAVX512(&dst[0], &ptrs[0], len(srcs), m)
	if m < n {
		xorManyTail(dst, srcs, m)
	}
}

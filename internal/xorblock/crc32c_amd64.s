//go:build !purego

#include "textflag.h"

// CRC32-C folding kernel for amd64 (dispatched by crc32c.go when
// detectCPU finds AVX-512F/BW/VL, VPCLMULQDQ and PCLMULQDQ).
//
// The scheme is hash/crc32's ieeeCLMUL widened to four 512-bit
// accumulators, with Castagnoli constants. The state is 256 bytes held
// as sixteen 128-bit lanes; folding a lane forward by n bits multiplies
// its low quadword by k(n+32) and its high quadword by k(n-32) and XORs
// both products into the lane n bits further on, where
//
//	k(n) = bitrev32(xⁿ mod P) << 1,  P = 0x1EDC6F41.
//
// A pass folds all sixteen lanes by 2048 bits onto the next 256 bytes.
// At the end every lane g < 15 is folded by (15-g)·128 bits onto lane 15
// in one multiply per accumulator, leftover 16-byte blocks are folded in
// one at a time, and the last 128 bits are reduced to 32 with
// ieeeCLMUL's Barrett finish (legacy SSE after VZEROUPPER).
// TestCRC32CConstants derives every constant below from P.

// Constant table: fold256 (16 B), sixteen lane pairs (256 B; lane 15
// passes through unmultiplied, and lane 14's pair k(160), k(96) is
// also the 16-byte fold and the 128→96-bit step of the finish), k(64),
// then P′ and μ′ = ⌊x⁶⁴/P⌋, both bit-reflected over 33 bits.
DATA crc32cK<>+0(SB)/8, $0x0dcb17aa4   // k(2080)
DATA crc32cK<>+8(SB)/8, $0x0b9e02b86   // k(2016)
DATA crc32cK<>+16(SB)/8, $0x0ffd852c6  // lane 0: k(1952)
DATA crc32cK<>+24(SB)/8, $0x12c743124  // lane 0: k(1888)
DATA crc32cK<>+32(SB)/8, $0x071d111a8
DATA crc32cK<>+40(SB)/8, $0x083348832
DATA crc32cK<>+48(SB)/8, $0x08462d800
DATA crc32cK<>+56(SB)/8, $0x1248ea574
DATA crc32cK<>+64(SB)/8, $0x0a87ab8a8
DATA crc32cK<>+72(SB)/8, $0x0ab7aff2a
DATA crc32cK<>+80(SB)/8, $0x0f1d0f55e
DATA crc32cK<>+88(SB)/8, $0x0daece73e
DATA crc32cK<>+96(SB)/8, $0x11ed1f9d8
DATA crc32cK<>+104(SB)/8, $0x18266e456
DATA crc32cK<>+112(SB)/8, $0x07e908048
DATA crc32cK<>+120(SB)/8, $0x0c96cfdc0
DATA crc32cK<>+128(SB)/8, $0x06992cea2
DATA crc32cK<>+136(SB)/8, $0x00d3b6092
DATA crc32cK<>+144(SB)/8, $0x02ad91c30
DATA crc32cK<>+152(SB)/8, $0x14237f5e6
DATA crc32cK<>+160(SB)/8, $0x1c1733996
DATA crc32cK<>+168(SB)/8, $0x102f9b8a2
DATA crc32cK<>+176(SB)/8, $0x0083a6eec
DATA crc32cK<>+184(SB)/8, $0x039d3b296
DATA crc32cK<>+192(SB)/8, $0x0740eef02
DATA crc32cK<>+200(SB)/8, $0x09e4addf8
DATA crc32cK<>+208(SB)/8, $0x01c291d04
DATA crc32cK<>+216(SB)/8, $0x1d82c63da
DATA crc32cK<>+224(SB)/8, $0x1384aa63a
DATA crc32cK<>+232(SB)/8, $0x0ba4fc28e
DATA crc32cK<>+240(SB)/8, $0x0f20c0dfe // lane 14: k(160)
DATA crc32cK<>+248(SB)/8, $0x14cd00bd6 // lane 14: k(96)
DATA crc32cK<>+256(SB)/8, $0           // lane 15
DATA crc32cK<>+264(SB)/8, $0
DATA crc32cK<>+272(SB)/8, $0x0dd45aab8 // k(64)
DATA crc32cK<>+280(SB)/8, $0x105ec76f1 // P′
DATA crc32cK<>+288(SB)/8, $0x0dea713f1 // μ′
GLOBL crc32cK<>(SB), RODATA, $296

// func crc32cFold(crc uint32, p []byte) uint32
TEXT ·crc32cFold(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	VMOVD     AX, X4
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        lanes

	VBROADCASTI32X4 crc32cK<>+0(SB), Z8

fold256:
	VPCLMULQDQ $0x00, Z8, Z0, Z4
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPCLMULQDQ $0x00, Z8, Z1, Z5
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPCLMULQDQ $0x00, Z8, Z2, Z6
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPCLMULQDQ $0x00, Z8, Z3, Z7
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGQ $0x96, (SI), Z4, Z0
	VPTERNLOGQ $0x96, 64(SI), Z5, Z1
	VPTERNLOGQ $0x96, 128(SI), Z6, Z2
	VPTERNLOGQ $0x96, 192(SI), Z7, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	CMPQ       CX, $256
	JAE        fold256

lanes:
	// Fold lanes 0..14 onto lane 15: multiply every lane by its pair
	// (lane 15's is zero), XOR the products and lane 15 into one.
	VMOVDQU64     crc32cK<>+16(SB), Z8
	VMOVDQU64     crc32cK<>+80(SB), Z9
	VMOVDQU64     crc32cK<>+144(SB), Z10
	VMOVDQU64     crc32cK<>+208(SB), Z11
	VEXTRACTI32X4 $3, Z3, X12
	VPCLMULQDQ    $0x00, Z8, Z0, Z4
	VPCLMULQDQ    $0x11, Z8, Z0, Z0
	VPCLMULQDQ    $0x00, Z9, Z1, Z5
	VPCLMULQDQ    $0x11, Z9, Z1, Z1
	VPCLMULQDQ    $0x00, Z10, Z2, Z6
	VPCLMULQDQ    $0x11, Z10, Z2, Z2
	VPCLMULQDQ    $0x00, Z11, Z3, Z7
	VPCLMULQDQ    $0x11, Z11, Z3, Z3
	VPTERNLOGQ    $0x96, Z4, Z1, Z0
	VPTERNLOGQ    $0x96, Z5, Z2, Z0
	VPTERNLOGQ    $0x96, Z6, Z3, Z0
	VPXORQ        Z7, Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPXOR         Y1, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPXOR         X0, X1, X1
	VPXOR         X12, X1, X1
	VZEROUPPER

	// Leftover 16-byte blocks, then the finish: ieeeCLMUL's remain16
	// and finish with the state in X1.
	MOVOU crc32cK<>+240(SB), X0
	CMPQ  CX, $16
	JB    finish

remain16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       remain16

finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA X1, X2
	MOVQ  crc32cK<>+272(SB), X0

	// 32-bit mask; the upper half does not matter.
	PSRLQ $32, X3

	PSRLDQ    $4, X2
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	MOVOU crc32cK<>+280(SB), X0

	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+32(FP)
	RET

// func crc32cConsts() *[crc32cConstsLen]uint64
TEXT ·crc32cConsts(SB), NOSPLIT, $0-8
	LEAQ crc32cK<>(SB), AX
	MOVQ AX, ret+0(FP)
	RET

//go:build !purego

package xorblock

import (
	"math/bits"
	"testing"
)

// xnModP returns xⁿ mod P for P = x³² + poly.
func xnModP(n int, poly uint32) uint32 {
	r := uint32(1)
	for ; n > 0; n-- {
		carry := r&(1<<31) != 0
		r <<= 1
		if carry {
			r ^= poly
		}
	}
	return r
}

// foldK is the constant that folds the quadword n bits ahead of the
// point it lands on: k(n) = bitrev32(xⁿ mod P) << 1.
func foldK(n int, poly uint32) uint64 {
	return uint64(bits.Reverse32(xnModP(n, poly))) << 1
}

// reflect33 reverses the low 33 bits of v.
func reflect33(v uint64) uint64 { return bits.Reverse64(v) >> 31 }

// barrett returns P′ and μ′ = ⌊x⁶⁴/P⌋, both bit-reflected over 33 bits.
func barrett(poly uint32) (pr, mu uint64) {
	p := 1<<32 | uint64(poly)
	// Long division of x⁶⁴ by P, one quotient bit per step; w is the
	// 33-bit window of the running remainder.
	w, q := uint64(1)<<32, uint64(0)
	for i := 32; i >= 0; i-- {
		if w&(1<<32) != 0 {
			q |= 1 << i
			w ^= p
		}
		w <<= 1
	}
	return reflect33(p), reflect33(q)
}

// TestCRC32CConstants derives every constant crc32cFold reads from the
// polynomial. The same generator reproduces hash/crc32's IEEE r2r1,
// r4r3, r5 and rupoly, which pins the convention.
func TestCRC32CConstants(t *testing.T) {
	t.Logf("CRC32C path: %s", crc32cPath())
	const ieee, castagnoliPoly = 0x04C11DB7, 0x1EDC6F41
	ieeeP, ieeeMu := barrett(ieee)
	cP, cMu := barrett(castagnoliPoly)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"IEEE r2r1 low", foldK(512+32, ieee), 0x154442bd4},
		{"IEEE r2r1 high", foldK(512-32, ieee), 0x1c6e41596},
		{"IEEE r4r3 low", foldK(128+32, ieee), 0x1751997d0},
		{"IEEE r4r3 high", foldK(128-32, ieee), 0x0ccaa009e},
		{"IEEE r5", foldK(64, ieee), 0x163cd6124},
		{"IEEE rupoly P′", ieeeP, 0x1db710641},
		{"IEEE rupoly μ′", ieeeMu, 0x1f7011641},
		{"k(2048+32)", foldK(2048+32, castagnoliPoly), 0xdcb17aa4},
		{"k(2048-32)", foldK(2048-32, castagnoliPoly), 0xb9e02b86},
		{"k(128+32)", foldK(128+32, castagnoliPoly), 0xf20c0dfe},
		{"k(128-32)", foldK(128-32, castagnoliPoly), 0x14cd00bd6},
		{"k(64)", foldK(64, castagnoliPoly), 0xdd45aab8},
		{"P′", cP, 0x105ec76f1},
		{"μ′", cMu, 0xdea713f1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}

	// The kernel's table, in crc32c_amd64.s's layout.
	var want []uint64
	want = append(want, foldK(2048+32, castagnoliPoly), foldK(2048-32, castagnoliPoly))
	for lane := 0; lane < 15; lane++ {
		n := (15 - lane) * 128
		want = append(want, foldK(n+32, castagnoliPoly), foldK(n-32, castagnoliPoly))
	}
	want = append(want, 0, 0, foldK(64, castagnoliPoly), cP, cMu)
	got := crc32cConsts()
	if len(want) != len(got) {
		t.Fatalf("derived %d constants, the kernel has %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("constant %d (byte %d) = %#x, derived %#x", i, 8*i, got[i], want[i])
		}
	}
}

// Package xorblock provides wide XOR kernels for fixed-size blocks.
//
// Entanglement codes are "essentially based on exclusive-or operations"
// (paper §VII); every encode, decode and repair in this repository reduces to
// the primitives in this package. Two kernel implementations back the
// exported helpers, selected at build time: an unsafe 8×-unrolled 64-bit
// kernel on amd64/arm64 (where unaligned loads are architecturally safe),
// and a portable word-at-a-time encoding/binary kernel everywhere else or
// under the `purego` build tag. Both process the bulk of the buffers in
// 64-bit words and fall back to byte loops for the ragged tail; the
// benchmarks report both side by side.
package xorblock

import (
	"encoding/binary"
	"fmt"
	"sync"

	"aecodes/internal/obs"
)

// wordSize is the number of bytes processed per wide XOR step.
const wordSize = 8

// XorInto computes dst = a XOR b. All three slices must have the same length;
// dst may alias a or b. It returns an error if the lengths differ.
func XorInto(dst, a, b []byte) error {
	if len(a) != len(b) || len(dst) != len(a) {
		return fmt.Errorf("xorblock: length mismatch dst=%d a=%d b=%d", len(dst), len(a), len(b))
	}
	xorWords(dst, a, b)
	return nil
}

// Xor returns a newly allocated a XOR b.
// It returns an error if the slice lengths differ.
func Xor(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("xorblock: length mismatch a=%d b=%d", len(a), len(b))
	}
	dst := make([]byte, len(a))
	xorWords(dst, a, b)
	return dst, nil
}

// XorAccumulate computes dst ^= src in place.
// It returns an error if the slice lengths differ.
func XorAccumulate(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("xorblock: length mismatch dst=%d src=%d", len(dst), len(src))
	}
	xorWords(dst, dst, src)
	return nil
}

// XorMany XORs all sources together into a freshly allocated block. At least
// one source is required, and all sources must share one length.
func XorMany(srcs ...[]byte) ([]byte, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("xorblock: no sources")
	}
	dst := make([]byte, len(srcs[0]))
	copy(dst, srcs[0])
	for _, s := range srcs[1:] {
		if err := XorAccumulate(dst, s); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// XorManyInto computes dst = srcs[0] XOR srcs[1] XOR ... in a single pass
// over dst: each 8-byte word is accumulated across every source before it is
// stored, so dst is written exactly once however many sources there are. At
// least one source is required; dst and every source must share one length.
// dst may alias any source.
func XorManyInto(dst []byte, srcs ...[]byte) error {
	if len(srcs) == 0 {
		return fmt.Errorf("xorblock: no sources")
	}
	n := len(dst)
	for si, s := range srcs {
		if len(s) != n {
			return fmt.Errorf("xorblock: length mismatch dst=%d srcs[%d]=%d", n, si, len(s))
		}
	}
	if len(srcs) == 1 {
		copy(dst, srcs[0])
		return nil
	}
	xorMany(dst, srcs)
	return nil
}

// Pool is a sync.Pool-backed allocator for blocks of one fixed size. It
// keeps the steady-state encode, repair and read paths allocation-free:
// every block handed out by Get was either recycled via Put or freshly
// zero-allocated, and the fresh ones are counted in xorblock/pool.fresh.
// The zero value is unusable; construct with NewPool or use PoolFor.
type Pool struct {
	size int
	p    sync.Pool // *[]byte holding a block
	// boxes recycles the *[]byte a block travels through p in, emptied,
	// so a Put allocates no box and a Get leaves none for the collector.
	boxes sync.Pool
}

// obsPoolFresh counts the blocks pools had to allocate because none was
// waiting: flat across a warm steady state, it rises with every block a
// reader keeps instead of handing back.
var obsPoolFresh = obs.Default.Scope("xorblock").Counter("pool.fresh")

// NewPool returns a pool handing out blocks of exactly size bytes.
// It panics if size is not positive.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("xorblock: pool block size must be positive, got %d", size))
	}
	return &Pool{size: size}
}

// BlockSize returns the fixed size of blocks managed by the pool.
func (p *Pool) BlockSize() int { return p.size }

// Get returns a block of the pool's size. Its content is unspecified;
// callers that need zeroes must clear it themselves.
func (p *Pool) Get() []byte {
	box, _ := p.p.Get().(*[]byte)
	if box == nil {
		obsPoolFresh.Inc()
		return make([]byte, p.size)
	}
	b := *box
	*box = nil
	p.boxes.Put(box)
	return b
}

// Put recycles a block previously returned by Get. Blocks of the wrong
// size are dropped rather than poisoning the pool; putting nil is a no-op.
func (p *Pool) Put(b []byte) {
	if len(b) != p.size {
		return
	}
	box, _ := p.boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	p.p.Put(box)
}

// pools registers one Pool per block size so unrelated subsystems sharing a
// block size also share recycled buffers.
var pools sync.Map // int -> *Pool

// PoolFor returns the process-wide Pool for the given block size, creating
// it on first use.
func PoolFor(size int) *Pool {
	if v, ok := pools.Load(size); ok {
		return v.(*Pool)
	}
	v, _ := pools.LoadOrStore(size, NewPool(size))
	return v.(*Pool)
}

// IsZero reports whether every byte of b is zero.
func IsZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether a and b have identical length and content.
func Equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// xorWordsGeneric is the portable two-operand kernel: word-at-a-time via
// encoding/binary on the aligned middle, byte-at-a-time on the ragged
// tail. It is always compiled — it backs the generic build (the `purego`
// tag or architectures without guaranteed unaligned loads) and serves as
// the reference the unsafe kernel is benchmarked and differentially
// tested against.
func xorWordsGeneric(dst, a, b []byte) {
	n := len(a)
	i := 0
	for ; i+wordSize <= n; i += wordSize {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		binary.LittleEndian.PutUint64(dst[i:], x^y)
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// xorManyGeneric is the portable many-operand kernel behind XorManyInto:
// each word is accumulated across every source before it is stored, so
// dst is written exactly once. Callers guarantee len(srcs) >= 2 and equal
// lengths.
func xorManyGeneric(dst []byte, srcs [][]byte) {
	n := len(dst)
	i := 0
	for ; i+wordSize <= n; i += wordSize {
		acc := binary.LittleEndian.Uint64(srcs[0][i:])
		for _, s := range srcs[1:] {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for ; i < n; i++ {
		acc := srcs[0][i]
		for _, s := range srcs[1:] {
			acc ^= s[i]
		}
		dst[i] = acc
	}
}

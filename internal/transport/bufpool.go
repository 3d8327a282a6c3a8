// Frame buffer pooling: every request/response payload and scatter/
// gather header arena on the hot path is drawn from size-bucketed pools
// instead of allocated per frame, so a steady batch workload stops
// paying an 8 MiB allocate-and-zero per PutMany frame.
//
// Ownership discipline: getBuf transfers ownership to the caller; putBuf
// transfers it back. A buffer must be recycled at most once, and only
// when no alias into it can outlive the recycle — the server recycles a
// request payload once the handler has returned (store.Keyed's
// consume-before-return contract covers the write handlers), and the
// client recycles a response only on paths whose decoded result copies
// out of it (put/stat acknowledgements, error texts). Payloads that
// escape to callers (Get, GetMany) are simply never recycled: the pool
// degrades to plain allocation, never to corruption.
package transport

import (
	"math/bits"
	"sync"
)

const (
	// minBufBits is the smallest pooled bucket (1 KiB): below it the
	// allocator is cheap enough that pooling only adds contention.
	minBufBits = 10
	// maxBufBits is the largest pooled bucket, sized to hold any legal
	// payload (MaxPayloadLen = 64 MiB).
	maxBufBits = 26
)

var framePools [maxBufBits - minBufBits + 1]sync.Pool

// getBuf returns a length-n buffer backed by a pooled power-of-two
// allocation. Contents are unspecified — every byte of the returned
// length is always overwritten by the framing code before use. Requests
// outside the pooled range fall back to plain allocation (and putBuf
// will refuse to pool them).
func getBuf(n int) []byte {
	b := bits.Len(uint(n - 1)) // exponent of the smallest power of two >= n
	if b < minBufBits {
		b = minBufBits
	}
	if n <= 0 || b > maxBufBits {
		obsPoolUnpooled.Inc()
		return make([]byte, n)
	}
	if v := framePools[b-minBufBits].Get(); v != nil {
		obsPoolHit.Inc()
		return (*(v.(*[]byte)))[:n]
	}
	obsPoolMiss.Inc()
	return make([]byte, n, 1<<b)
}

// putBuf recycles a buffer handed out by getBuf. Buffers whose capacity
// is not a pooled bucket size (including nil and the plain-allocation
// fallback) are dropped rather than poisoning a pool.
func putBuf(buf []byte) {
	c := cap(buf)
	if c < 1<<minBufBits || c > 1<<maxBufBits || c&(c-1) != 0 {
		return
	}
	full := buf[:c]
	framePools[bits.Len(uint(c-1))-minBufBits].Put(&full)
}

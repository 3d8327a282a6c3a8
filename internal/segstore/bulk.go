package segstore

import (
	"encoding/binary"
	"os"
	"runtime"
	"sync"

	"aecodes/internal/xorblock"
)

// Bulk calls use every core. The batch reads spend their time preading
// records and computing CRC32-C over them, record by record, and a
// record's check depends on nothing but its own bytes. (StatBatch reads
// no record: it answers from the index, in line.)
// runChunks splits such a call into contiguous chunks of about equal
// record bytes and runs them on up to GOMAXPROCS goroutines. A batch
// under bulkFloor record bytes runs in line as one chunk: below it the
// goroutine hand-off costs more than the second core saves (DESIGN.md
// has the measurements it was set from). PutBatch is not split: its
// CRCs are a tenth of an append's cost, and splitting them lost at the
// floor.
//
// A caller resolves its keys under s.mu and holds the read lock
// until runChunks returns, so Compact and Close cannot close a file
// under a chunk; the chunks themselves touch no store state, only the
// files and locations they were handed.

// bulkFloor is the record bytes from which a bulk call is split: a
// batch of at least bulkFloor bytes gets two chunks or more, each of at
// least bulkFloor/2 bytes. A var only so tests can move it.
var bulkFloor int64 = 8 << 20

// runChunks runs fn over contiguous chunks [lo, hi) of the n items of a
// bulk call, whose i-th item has size(i) record bytes, and returns once
// every chunk has. One chunk, run in line, below bulkFloor; otherwise
// one chunk per core, at most one per bulkFloor/2 bytes, the last run on
// the caller's goroutine.
func runChunks(n int, size func(i int) int64, fn func(lo, hi int)) {
	var total int64
	for i := 0; i < n; i++ {
		total += size(i)
	}
	chunks := 1
	if total >= bulkFloor {
		chunks = int(min(int64(runtime.GOMAXPROCS(0)), int64(n), 2*total/bulkFloor))
	}
	if chunks < 2 {
		fn(0, n)
		return
	}
	obsBulkParallelBytes.Add(total)
	runParallel(n, chunks, total, size, fn)
}

// runParallel is runChunks' split: chunk c ends at the first item that
// takes the running record bytes to c/chunks of the total.
func runParallel(n, chunks int, total int64, size func(i int) int64, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	lo, acc := 0, int64(0)
	for c := 1; c < chunks; c++ {
		hi := lo
		for target := total * int64(c) / int64(chunks); hi < n && acc < target; hi++ {
			acc += size(hi)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	fn(lo, n)
	wg.Wait()
}

// probe is one key of a bulk read resolved under s.mu: the segment file
// holding its live record and the record's location, or f == nil when
// there is nothing to read for it. at is the record's offset in a batch
// arena holding every record of the call in key order.
type probe struct {
	f   *os.File
	loc recordLoc
	at  int64
}

// size is the record bytes a chunk reads for p.
func (p probe) size() int64 {
	if p.f == nil {
		return 0
	}
	return p.loc.recLen()
}

// probesLocked resolves keys for a bulk read and returns their probes
// with the batch's record bytes. With blocks, a key whose payload is not
// exactly len(blocks[i]) bytes has nothing to read. Callers hold s.mu
// (the read lock suffices) until the reads are done.
func (s *Store) probesLocked(keys []string, blocks [][]byte) ([]probe, int64) {
	ps := make([]probe, len(keys))
	if s.closed {
		return ps, 0
	}
	var at int64
	for i, key := range keys {
		loc, ok := s.index[key]
		if !ok || (blocks != nil && int(loc.dataLen) != len(blocks[i])) {
			continue
		}
		ps[i] = probe{f: s.files[loc.seg], loc: loc, at: at}
		at += loc.recLen()
	}
	return ps, at
}

// buf returns the buffer p's record is read into: its own slot of arena,
// capped so no slot reaches into the next.
func (p probe) buf(arena []byte) []byte {
	return arena[p.at : p.at+p.size() : p.at+p.size()]
}

// maxHeadLen bounds the part of a record before its payload: header,
// keyLen and key.
const maxHeadLen = recHeaderLen + 2 + MaxKeyLen

// headPool holds the scratch a chunk of ReadInto reads record heads
// into, one per chunk. It cannot live on the chunk's stack:
// xorblock.CRC32C hands what its folding kernel does not take (buffers
// under 256 bytes such as a head, tails, and everything on CPUs without
// the kernel) to hash/crc32, whose update dispatches through a function
// value, so whatever CRC32C checksums escapes.
var headPool = sync.Pool{New: func() any { return new([maxHeadLen]byte) }}

// verifyRecord is the one check every read of a live record runs, on
// whichever path and goroutine: Get, ReadBatch, ReadInto, ScrubStep and
// Compact. head holds the record up to its payload (loc.headLen() bytes)
// and payload its loc.dataLen payload bytes. The record passes when its
// version bit is set, its header carries the payload length the index
// holds, its CRC32-C matches header, key and payload, and its stored key
// is key.
func verifyRecord(head, payload []byte, loc recordLoc, key string) bool {
	word0 := binary.BigEndian.Uint32(head[0:4])
	crc := xorblock.CRC32C(0, head[0:4])
	crc = xorblock.CRC32C(crc, head[recHeaderLen:])
	crc = xorblock.CRC32C(crc, payload)
	return word0&recVersion != 0 && word0&recLenMask == loc.dataLen &&
		crc == binary.BigEndian.Uint32(head[4:8]) &&
		string(head[recHeaderLen+2:]) == key
}

// readRecord reads the record at loc from f into buf (loc.recLen()
// bytes) with one pread, verifies it and returns the payload within buf.
// The caller holds s.mu so f stays open.
func readRecord(f *os.File, buf []byte, loc recordLoc, key string) ([]byte, bool) {
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, false
	}
	head, payload := buf[:loc.headLen()], buf[loc.headLen():]
	if !verifyRecord(head, payload, loc, key) {
		return nil, false
	}
	return payload, true
}

// readRecordInto reads the record at loc from f with one vectored read —
// header and key into head (loc.headLen() bytes), the payload straight
// into block (loc.dataLen bytes) — verifies it and returns block. The
// caller holds s.mu so f stays open.
func readRecordInto(f *os.File, head, block []byte, loc recordLoc, key string) ([]byte, bool) {
	if readvAt(f, head, block, loc.off) != nil || !verifyRecord(head, block, loc, key) {
		return nil, false
	}
	return block, true
}

// scratchPool holds the buffers ScrubStep verifies records in, grown to
// the largest record seen, and ReadBatch's arenas, one per call, grown
// to the largest batch: a scrub of the whole store, or a node serving
// reads, allocates no record buffer once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// scratchFor returns *buf resliced to n bytes, growing it when short.
func scratchFor(buf *[]byte, n int64) []byte {
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

package segstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
)

// Bulk calls use every core. StatBatch and GetBatch spend their time
// preading records and computing CRC32-C over them, record by record,
// and a record's check depends on nothing but its own bytes. runChunks
// splits such a call into contiguous chunks of about equal record bytes
// and runs them on up to GOMAXPROCS goroutines. A batch under bulkFloor
// record bytes runs in line as one chunk: below it the goroutine
// hand-off costs more than the second core saves (DESIGN.md has the
// measurements it was set from). PutBatch is not split: its CRCs are a
// tenth of an append's cost, and splitting them lost at the floor.
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
// bulk call, whose i-th item has size(i) record bytes, and returns the
// batch's record bytes once every chunk has returned. One chunk, run in
// line, below bulkFloor; otherwise one chunk per core, at most one per
// bulkFloor/2 bytes, the last run on the caller's goroutine.
func runChunks(n int, size func(i int) int64, fn func(lo, hi int)) int64 {
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
		return total
	}
	obsBulkParallelBytes.Add(total)
	runParallel(n, chunks, total, size, fn)
	return total
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
// the key has none.
type probe struct {
	f   *os.File
	loc recordLoc
}

// size is the record bytes a chunk reads for p.
func (p probe) size() int64 {
	if p.f == nil {
		return 0
	}
	return p.loc.recLen()
}

// probesLocked resolves keys for a bulk read. Callers hold s.mu (the
// read lock suffices) until the reads are done.
func (s *Store) probesLocked(keys []string) []probe {
	ps := make([]probe, len(keys))
	if s.closed {
		return ps
	}
	for i, key := range keys {
		if loc, ok := s.index[key]; ok {
			ps[i] = probe{f: s.files[loc.seg], loc: loc}
		}
	}
	return ps
}

// readRecord reads the record at loc from f into buf (loc.recLen()
// bytes) and verifies it — version bit, CRC32-C over the whole record,
// and the stored key against key — returning the payload within buf.
// Every read of a live record runs it, on whichever path and goroutine;
// the caller holds s.mu so f stays open.
func readRecord(f *os.File, buf []byte, loc recordLoc, key string) ([]byte, bool) {
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, false
	}
	word0 := binary.BigEndian.Uint32(buf[0:4])
	wantCRC := binary.BigEndian.Uint32(buf[4:8])
	rest := buf[recHeaderLen:]
	crc := crc32.Checksum(buf[0:4], castagnoli)
	crc = crc32.Update(crc, castagnoli, rest)
	if word0&recVersion == 0 || crc != wantCRC {
		return nil, false
	}
	stored := rest[2 : 2+loc.keyLen]
	if string(stored) != key {
		return nil, false
	}
	return rest[2+int(loc.keyLen):], true
}

// scratchPool holds the buffers StatBatch and ScrubStep verify records
// in, one per chunk, grown to the largest record seen: a sweep of the
// whole store allocates nothing once the pool is warm.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// scratchFor returns *buf resliced to n bytes, growing it when short.
func scratchFor(buf *[]byte, n int64) []byte {
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

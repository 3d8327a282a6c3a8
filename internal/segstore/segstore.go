// Package segstore is the durable storage backend for aestored: an
// append-only segment store that survives a SIGKILL. Blocks live in
// fixed-size segment files as checksummed records; an in-memory index
// (key → record location) is rebuilt on open from the footers of the
// sealed segments and a scan of the active one, so a restarted node
// serves every block whose record survived — a restart becomes a cheap
// rejoin instead of a full entanglement repair.
//
// Record framing follows the archive v2 convention (an 8-byte header of
// one flag/length word plus one CRC32-C word covering the header word
// and everything after it):
//
//	record := word0(4, big endian) crc(4) keyLen(2) key data
//	word0  := tombstone flag (bit 31) | version bit (bit 30, always set)
//	          | len(data) in the low 30 bits
//	crc    := CRC32-C over word0, keyLen, key, data
//
// The version bit doubles as a validity gate during recovery: a torn
// tail of zeros (or a header sliced mid-write) fails it immediately.
//
// Rotation seals the active segment once an append would grow it past
// Options.SegmentSize, and the seal job appends a footer to it: the
// key, payload length and tombstone flag of every record it holds, in
// log order, under a CRC (see footer.go). Recovery replays the segments
// in order with last-write-wins semantics: a sealed segment from its
// footer, reading none of its records; the active (highest-numbered)
// segment, and any sealed one whose footer is missing, torn or fails its
// CRC (a log written before footers, a seal cut off by a crash), by a
// scan that verifies every record. The first invalid record ends the
// scan of its segment, and when that segment is the active one, the torn
// tail is truncated so the next append lands at a valid offset.
//
// Reads re-verify the record CRC, so a block corrupted at rest reads as
// missing — the repair engine regenerates it from its strands — instead
// of serving bad bytes, and the read drops the key from the index.
// Presence (StatBatch, Size, Has, Each) is answered from the index
// alone. Every entry was verified when its record was appended — by
// Open's scan too, when it came from one — but not by an Open that took
// it from a footer: a footer can outlive the bytes of a record it lists
// (a power cut that reordered pages), and a record that rots after its
// append stays listed until a read, ScrubStep or Compact finds it.
//
// Deletes append a tombstone record; Compact rewrites the live records
// of sealed segments to the tail of the log and removes the sealed
// files. Compaction is crash-safe at every step: a crash between the
// copy and the removal leaves duplicate records, and the last-write-wins
// scan resolves them to the same contents on the next open.
//
// Durability. A completed write is in the kernel, so it survives a
// process kill. It survives power loss once a barrier has returned:
// Sync, Close, every write call under Options.Sync, and Compact before
// it removes a file. A rotation does not wait for the disk: it starts a
// seal job (see rotateLocked) that fsyncs the sealed segment and the
// directory beside the appends that follow, and every barrier waits for
// that job before it syncs the active segment. The first fsync that
// fails, wherever it ran, fail-stops the store: reads keep serving,
// every later write and barrier returns that error.
package segstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// Record framing constants. The limits match the transport protocol's,
// so any block a node can receive over the wire can be persisted.
const (
	recHeaderLen = 8
	recTombstone = 1 << 31
	recVersion   = 1 << 30
	recLenMask   = recVersion - 1

	// MaxKeyLen and MaxBlockLen bound one record; both match the
	// transport frame limits.
	MaxKeyLen   = 4096
	MaxBlockLen = 64 << 20
)

// segExt is the segment file suffix; files are named like 00000001.seg.
const segExt = ".seg"

// lockName is the advisory lock file guarding the directory against a
// second writer (two processes interleaving appends would tear each
// other's records). The lock is released automatically when the holder
// dies, so a SIGKILL'd node never blocks its own restart.
const lockName = "LOCK"

// syncDir (per-platform, see lock_unix.go / lock_other.go) fsyncs a
// directory so file creations and unlinks inside it survive power loss
// — plain fsync of the files only pins their contents, not their
// directory entries.

// fsync flushes a segment file or (from syncDir) a directory to stable
// storage. Every flush the store issues goes through it; tests swap it
// to record the order of flushes and to inject a failure.
var fsync = (*os.File).Sync

// Options tunes a Store.
type Options struct {
	// SegmentSize is the rotation threshold in bytes: an append that
	// would grow the active segment past it seals the segment and starts
	// a new one. Values < 1 default to 64 MiB. A single record larger
	// than the threshold still fits — a segment always accepts at least
	// one record — and the footer sealing a segment lies past it. The
	// sealed segment is fsynced beside the appends that follow and the
	// next rotation waits for that, so without Sync at most two
	// segments' worth of acknowledged bytes are not yet on disk.
	SegmentSize int64
	// Sync makes every write call (single or batch) a durability barrier:
	// it returns only after every segment it touched and, when it crossed
	// a rotation, the directory have been fsynced. Off by default:
	// completed writes already survive a process kill (they are in the
	// kernel by the time Put returns), Sync only adds protection against
	// the whole machine going down.
	Sync bool
	// CompactRatio auto-triggers Compact when the dead-bytes share of
	// the log's physical size reaches it (0 < ratio ≤ 1; 0 disables).
	// The check runs after each completed write call, so a store under a
	// churny workload reclaims superseded and deleted records without
	// waiting for the next restart's -compactdead pass. Compaction still
	// runs stop-the-world under the store lock: the triggering write has
	// already been applied and is reported successfully even when the
	// compaction itself fails — a failure is recorded (CompactErr) and
	// disables the auto-trigger until an explicit Compact succeeds, so a
	// store that cannot compact does not re-attempt on every write.
	CompactRatio float64
}

func (o Options) segmentSize() int64 {
	if o.SegmentSize < 1 {
		return 64 << 20
	}
	return o.SegmentSize
}

// recordLoc locates one live record inside a segment.
type recordLoc struct {
	seg     uint64
	off     int64
	keyLen  uint16
	dataLen uint32
}

// headLen is the bytes of the record before its payload: header, keyLen
// and key.
func (l recordLoc) headLen() int { return recHeaderLen + 2 + int(l.keyLen) }

func (l recordLoc) recLen() int64 { return int64(l.headLen()) + int64(l.dataLen) }

// Stats describes the store after open or at any later point.
type Stats struct {
	// Blocks is the number of live keys.
	Blocks int
	// Segments is the number of segment files.
	Segments int
	// DeadBytes is the space a Compact call can reclaim: bytes in sealed
	// segments not occupied by live records. A sealed segment counts up
	// to its footer, or whole when it has none. (Superseded records in
	// the active segment are not counted — only a later rotation makes
	// them reclaimable.)
	DeadBytes int64
	// LiveBytes is the on-disk space live records occupy (payload plus
	// record framing) — the used-bytes signal a node reports in cluster
	// heartbeats.
	LiveBytes int64
	// TruncatedBytes is the torn tail removed from the active segment by
	// the recovery scan of the last Open.
	TruncatedBytes int64
}

// Store is a durable keyed block store over append-only segment files.
// It implements store.Keyed (and, with Size, Each and Dropped, tenant.Backing)
// and is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	lock *os.File // held flock on dir/LOCK; nil on platforms without flock

	mu         sync.RWMutex
	closed     bool                 // guarded by mu
	index      map[string]recordLoc // guarded by mu
	files      map[uint64]*os.File  // all segments, open for ReadAt; guarded by mu
	sealedLen  map[uint64]int64     // valid byte length of each sealed segment; guarded by mu
	liveInSeg  map[uint64]int64     // live record bytes per segment; guarded by mu
	active     uint64               // highest segment id; appends go here; guarded by mu
	w          *os.File             // == files[active]; guarded by mu
	woff       int64                // append offset in the active segment; guarded by mu
	batchArena []byte               // reusable header+key scratch for putBatchLocked; guarded by mu
	entries    []logEntry           // the active segment's records in log order, for its footer; guarded by mu
	truncated  int64                // torn tail removed by the last Open; guarded by mu
	compactErr error                // first auto-compaction failure; guarded by mu

	// The seal job in flight, at most one: rotateLocked starts it, and
	// the next rotation and every barrier wait for it, all under mu.
	seal    sync.WaitGroup
	sealing bool // a job was started and not yet waited for; guarded by mu

	// failed holds the first fsync failure. The seal job sets it without
	// mu (a barrier may hold mu while it waits for the job), hence atomic.
	failed atomic.Pointer[error]

	// dropped counts the keys dropped because their record failed its
	// check (see Dropped). Written under mu, read without it.
	dropped atomic.Uint64
}

var _ store.Keyed = (*Store)(nil)

// Open opens (or creates) the segment store in dir. It rebuilds the
// index from the footer of every sealed segment that has a valid one and
// by scanning the rest — the active segment always — and truncates a
// torn tail of the active segment left by a crash mid-append.
//
//lint:ignore lockscope s is unpublished until Open returns; no other goroutine can hold mu yet
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segstore: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		index:     make(map[string]recordLoc),
		files:     make(map[uint64]*os.File),
		sealedLen: make(map[uint64]int64),
		liveInSeg: make(map[uint64]int64),
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s.lock = lock
	ids, err := listSegments(dir)
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	created := len(ids) == 0
	if created {
		ids = []uint64{1}
	}
	for _, id := range ids {
		f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("segstore: opening segment %d: %w", id, err)
		}
		s.files[id] = f
	}
	if created {
		if err := syncDir(dir); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("segstore: syncing %s: %w", dir, err)
		}
	}
	start := time.Now()
	for i, id := range ids {
		f := s.files[id]
		info, err := f.Stat()
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("segstore: segment %d: %w", id, err)
		}
		size := info.Size()
		last := i == len(ids)-1
		var (
			recs     []footerRecord
			recEnd   int64
			footered bool
		)
		if !last {
			recs, recEnd, footered = readFooter(f, id, size)
		}
		if footered && footers {
			for _, r := range recs {
				s.applyRecord(r.key, r.tombstone, r.loc)
			}
			s.sealedLen[id] = recEnd
			obsOpenFooterSegments.Inc()
			continue
		}
		s.entries = s.entries[:0]
		valid, err := s.scanSegment(id)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		obsOpenScannedSegments.Inc()
		obsOpenScannedBytes.Add(size)
		if !last {
			// Dead-bytes accounting counts a sealed segment up to its
			// footer, or whole when it has none: a sealed segment with a
			// corrupt suffix is reclaimed whole by Compact, so the whole
			// file must count.
			s.sealedLen[id] = size
			if footered {
				s.sealedLen[id] = recEnd
			}
			continue
		}
		// Truncate the torn tail so the next append starts at a CRC-valid
		// offset; sealed segments are never appended to, so their invalid
		// tails (mid-segment corruption) are only skipped, not rewritten.
		if size > valid {
			s.truncated = size - valid
			if err := f.Truncate(valid); err != nil {
				s.closeFiles()
				return nil, fmt.Errorf("segstore: truncating torn tail of segment %d: %w", id, err)
			}
		}
		s.active = id
		s.w = f
		s.woff = valid
	}
	obsOpenLatency.Record(time.Since(start).Nanoseconds())
	return s, nil
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d%s", id, segExt))
}

func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: listing %s: %w", dir, err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segExt) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segExt), 10, 64)
		if err != nil || id == 0 {
			continue // not a segment file; leave it alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids, nil
}

// scanSegment replays one segment into the index and into s.entries and
// returns the offset of the first invalid byte (== the file size when
// the whole segment is intact). Records are applied in order, so within
// and across segments the last write wins.
//
//lint:ignore lockscope runs only from Open, before the store is published
func (s *Store) scanSegment(id uint64) (int64, error) {
	f := s.files[id]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("segstore: segment %d: %w", id, err)
	}
	// Buffered: the scan otherwise issues ~3 small read syscalls per
	// record (header, key, data). countingReader tracks offsets itself,
	// so buffering is invisible to the offset math.
	r := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	var (
		hdr  [recHeaderLen + 2]byte
		off  int64
		kbuf []byte
		dbuf []byte
	)
	for {
		off = r.n
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, nil // clean EOF or sliced header: end of valid data
		}
		word0 := binary.BigEndian.Uint32(hdr[0:4])
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		keyLen := binary.BigEndian.Uint16(hdr[8:10])
		if !validHeader(word0, keyLen) {
			return off, nil // zeros, garbage or a footer: end of the records
		}
		dataLen := word0 & recLenMask
		if cap(kbuf) < int(keyLen) {
			kbuf = make([]byte, MaxKeyLen)
		}
		key := kbuf[:keyLen]
		if _, err := io.ReadFull(r, key); err != nil {
			return off, nil
		}
		if cap(dbuf) < int(dataLen) {
			dbuf = make([]byte, int(dataLen))
		}
		data := dbuf[:dataLen]
		if _, err := io.ReadFull(r, data); err != nil {
			return off, nil
		}
		crc := xorblock.CRC32C(0, hdr[0:4])
		crc = xorblock.CRC32C(crc, hdr[8:10])
		crc = xorblock.CRC32C(crc, key)
		crc = xorblock.CRC32C(crc, data)
		if crc != wantCRC {
			return off, nil
		}
		s.appliedLocked(string(key), word0, recordLoc{seg: id, off: off, keyLen: keyLen, dataLen: dataLen})
	}
}

// applyRecord replays one valid record into the index, keeping the
// per-segment live-byte counters (behind the incremental dead-bytes
// accounting) in step.
//
//lint:ignore lockscope callers hold mu, or run in Open before the store is published
func (s *Store) applyRecord(key string, tombstone bool, loc recordLoc) {
	if old, ok := s.index[key]; ok {
		s.liveInSeg[old.seg] -= old.recLen()
	}
	if tombstone {
		delete(s.index, key)
		return
	}
	s.index[key] = loc
	s.liveInSeg[loc.seg] += loc.recLen()
}

// appliedLocked replays a record of the active segment — just appended,
// or met by Open's scan — into the index and into the entries its footer
// will list. Callers hold s.mu (or run in Open, before it is published).
func (s *Store) appliedLocked(key string, word0 uint32, loc recordLoc) {
	s.applyRecord(key, word0&recTombstone != 0, loc)
	s.entries = append(s.entries, logEntry{key: key, word0: word0})
}

// dropLiveLocked removes a key whose record turned out unreadable,
// keeping the live-byte counters and Dropped in step. Callers hold s.mu.
func (s *Store) dropLiveLocked(key string) {
	if old, ok := s.index[key]; ok {
		s.liveInSeg[old.seg] -= old.recLen()
		delete(s.index, key)
		s.dropped.Add(1)
	}
}

// Dropped counts the keys the store has dropped on its own since Open —
// not through Del: records a read, ScrubStep or Compact found failing
// their check. A caller that keeps totals over what the index holds
// (tenant.Registry's usage) rebuilds them when the count moves.
func (s *Store) Dropped() uint64 { return s.dropped.Load() }

// countingReader counts consumed bytes so the scan knows each record's
// offset without a second pass.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// closeFiles closes every open segment plus the directory lock. It runs
// either pre-publication (Open's error paths) or with mu held (Close),
// so it cannot take the lock itself.
//
//lint:ignore lockscope callers either hold mu (Close) or own the sole reference (Open error paths)
func (s *Store) closeFiles() {
	for _, f := range s.files {
		f.Close()
	}
	if s.lock != nil {
		s.lock.Close() // releases the flock
	}
}

// Close is the last barrier: it waits for the seal job, syncs the active
// segment and closes every segment file, so no goroutine or descriptor
// of the store outlives it. A store that fail-stopped returns the fsync
// error that stopped it. The store is unusable afterwards; Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.barrierLocked()
	s.closeFiles()
	return err
}

// Sync is a durability barrier: when it returns nil, every write
// acknowledged before the call is on stable storage — the segment being
// sealed, the directory entry of the active one, and the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	return s.barrierLocked()
}

// failure returns the fsync error that fail-stopped the store, or nil
// while it accepts writes. After a failed fsync the kernel may have
// dropped the dirty pages and report the next fsync clean, so the store
// never retries one: every later Put, PutBatch, Sync and Compact returns
// this error wrapped, Del leaves its key in place, Close returns it, and
// reads keep serving what the log holds.
func (s *Store) failure() error {
	if p := s.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the store's sticky failure unless an earlier one
// is already recorded, and returns err.
func (s *Store) fail(err error) error {
	s.failed.CompareAndSwap(nil, &err)
	return err
}

// writableLocked returns the error a write or barrier is refused with:
// the store is closed, or an fsync failed. Callers hold s.mu.
func (s *Store) writableLocked() error {
	if s.closed {
		return errors.New("segstore: store closed")
	}
	if err := s.failure(); err != nil {
		return fmt.Errorf("segstore: store stopped by a failed fsync: %w", err)
	}
	return nil
}

// Dir returns the directory holding the segment files.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Has reports whether key has a live record, without reading it.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Stats returns the store's current shape. DeadBytes comes from the
// incrementally maintained per-segment live-byte counters (O(segments)),
// so a caller gating compaction on it sees exactly what Compact would
// reclaim.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var live int64
	for _, n := range s.liveInSeg {
		live += n
	}
	return Stats{
		Blocks:         len(s.index),
		Segments:       len(s.files),
		DeadBytes:      s.deadBytesLocked(),
		LiveBytes:      live,
		TruncatedBytes: s.truncated,
	}
}

// deadBytesLocked is the space a Compact call can reclaim: bytes in
// sealed segments not occupied by live records. Callers hold s.mu.
func (s *Store) deadBytesLocked() int64 {
	var dead int64
	for id, n := range s.sealedLen {
		dead += n - s.liveInSeg[id]
	}
	return dead
}

// Size reports the payload length of the block under key from the index,
// without reading it: StatBatch's answer for one key. Like StatBatch it
// lists a record whose bytes are bad — rotted since its append, or lost
// under a footer that outlived them — until a read or scrub finds it.
func (s *Store) Size(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[key]
	if !ok || s.closed {
		return 0, false
	}
	return int64(loc.dataLen), true
}

// Each walks every live key with its payload size, in no particular
// order, until fn returns false. The walk holds the store's read lock:
// fn must not call back into the store.
func (s *Store) Each(fn func(key string, size int64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, loc := range s.index {
		if !fn(key, int64(loc.dataLen)) {
			return
		}
	}
}

// Get returns the block stored under key and whether it exists. The
// record's CRC is verified on every read: a record corrupted at rest
// reads as missing, and is dropped from the index, so the caller's
// repair machinery regenerates the block instead of receiving bad bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	start := time.Now()
	var b []byte
	s.mu.RLock()
	loc, indexed := s.index[key]
	indexed = indexed && !s.closed
	ok := false
	if indexed {
		b, ok = readRecord(s.files[loc.seg], make([]byte, loc.recLen()), loc, key)
	}
	s.mu.RUnlock()
	obsReadLatency.Record(time.Since(start).Nanoseconds())
	if ok {
		obsReadBytes.Add(int64(len(b)))
	} else if indexed {
		s.dropUnreadable([]badRecord{{key, loc}})
	}
	return b, ok
}

// Put stores a block under key, appending one record to the active
// segment. The data slice is written before Put returns, never retained.
// It rides the vectored batch path as a batch of one, so even a single
// put gathers header and payload straight to the file without staging.
func (s *Store) Put(key string, data []byte) error {
	items := [1]store.KV{{Key: key, Data: data}}
	return s.PutBatch(items[:])
}

// Del removes a block by appending a tombstone record. Deleting a
// missing key is a no-op (no tombstone is written), and so is any Del on
// a closed or fail-stopped store: the key stays.
func (s *Store) Del(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writableLocked() != nil {
		return
	}
	if _, ok := s.index[key]; !ok {
		return
	}
	// A failed tombstone append leaves the key present — the caller sees
	// delete-after-restart semantics no worse than delete-never-happened.
	if err := s.appendTombstoneLocked(key); err == nil {
		s.maybeSyncLocked()
		s.maybeCompactLocked()
		s.updateShapeLocked()
	}
}

// ReadBatch implements store.Keyed: the batch is read and verified as
// ReadInto reads it, but every record lands in its own slot of one arena
// drawn from scratchPool, so once the pool is warm serving a batch
// allocates no record buffer. fn runs after the read lock is released;
// the arena goes back to the pool when fn returns, which is why fn must
// not keep a block.
func (s *Store) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	arena := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(arena)
	return fn(s.readBatch(keys, nil, arena))
}

// ReadInto reads the blocks of keys into the caller's buffers under a
// single lock acquisition: entry i of the result is blocks[i] holding
// the verified payload of keys[i], or nil when keys[i] has no record,
// its record fails the check, or its payload is not exactly
// len(blocks[i]) bytes. A record that fails the check is dropped from
// the index, as on every read; a record of another length is neither
// read nor dropped — it is not corrupt, only not what the caller asked
// for. Each record is one vectored read: header and key into a pooled
// scratch of the chunk, the payload straight into its block, so a caller
// that recycles its blocks (Lattice draws them from the block pool)
// reads without a buffer per record. A block whose entry is nil holds
// unspecified bytes.
func (s *Store) ReadInto(keys []string, blocks [][]byte) [][]byte {
	return s.readBatch(keys, blocks, nil)
}

// readBatch is the one batch read path: keys are resolved under the read
// lock, every live record is read and verified — in chunks on every
// core once the batch is large enough (see runChunks) — and the lock is
// released before it returns. Entry i is the payload of keys[i], nil
// when it has no record or the record fails the check; a record that
// fails it is dropped from the index once the read lock is released.
// With blocks (ReadInto) the payload of keys[i] lands in blocks[i];
// otherwise (ReadBatch) every record lands in its slot of *arena, grown
// to the batch's record bytes.
func (s *Store) readBatch(keys []string, blocks [][]byte, arena *[]byte) [][]byte {
	start := time.Now()
	out := make([][]byte, len(keys))
	s.mu.RLock()
	ps, total := s.probesLocked(keys, blocks)
	var slots []byte
	if blocks == nil {
		slots = scratchFor(arena, total)
	}
	runChunks(len(ps), func(i int) int64 { return ps[i].size() }, func(lo, hi int) {
		head := headPool.Get().(*[maxHeadLen]byte)
		defer headPool.Put(head)
		for i := lo; i < hi; i++ {
			// A verified payload is never nil: it slices a buffer.
			switch p := ps[i]; {
			case p.f == nil:
			case blocks != nil:
				out[i], _ = readRecordInto(p.f, head[:p.loc.headLen()], blocks[i], p.loc, keys[i])
			default:
				out[i], _ = readRecord(p.f, p.buf(slots), p.loc, keys[i])
			}
		}
	})
	s.mu.RUnlock()
	var bytes int64
	var bad []badRecord
	for i, b := range out {
		bytes += int64(len(b))
		if b == nil && ps[i].f != nil {
			bad = append(bad, badRecord{keys[i], ps[i].loc})
		}
	}
	obsReadLatency.Record(time.Since(start).Nanoseconds())
	obsReadBytes.Add(bytes)
	if bad != nil {
		s.dropUnreadable(bad)
	}
	return out
}

// StatBatch probes presence from the index: one entry per key in order,
// the block's byte length when the index holds a record for it, -1
// otherwise. It reads no record. Every index entry was verified at its
// append — again by Open's scan for the active segment and footerless
// ones, not by an Open that took it from a sealed segment's footer — so
// the answer agrees with ReadBatch except for a record whose bytes went
// bad since: corrupted at rest, or lost under a footer that reached the
// disk without them (a power cut that reordered pages). Such a record
// stats present until a read, ScrubStep or Compact finds it and drops
// the key.
func (s *Store) StatBatch(keys []string) []int {
	start := time.Now()
	out := make([]int, len(keys))
	s.mu.RLock()
	for i, key := range keys {
		out[i] = -1
		if loc, ok := s.index[key]; ok && !s.closed {
			out[i] = int(loc.dataLen)
		}
	}
	s.mu.RUnlock()
	obsStatLatency.Record(time.Since(start).Nanoseconds())
	obsStatKeys.Add(int64(len(keys)))
	return out
}

// PutBatch stores all items in order under one lock acquisition and (with
// Options.Sync) one barrier for the whole batch. The first failing write
// aborts the batch; items in earlier flushed chunks are stored. Records
// are laid out as scatter/gather segments and land with one vectored
// write per rotation-bounded chunk — block payloads go from the caller's
// slices to the file without a user-space staging copy on platforms with
// pwritev (see writevAt).
func (s *Store) PutBatch(items []store.KV) error {
	var payload int64
	for _, it := range items {
		if err := checkRecord(it.Key, it.Data); err != nil {
			return err
		}
		payload += int64(len(it.Data))
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	obsAppendLockWait.Record(time.Since(start).Nanoseconds())
	if err := s.writableLocked(); err != nil {
		return err
	}
	if err := s.putBatchLocked(items); err != nil {
		return err
	}
	if err := s.maybeSyncLocked(); err != nil {
		return err
	}
	s.maybeCompactLocked()
	obsAppendLatency.Record(time.Since(start).Nanoseconds())
	obsAppendBytes.Add(payload)
	obsAppendBlocks.Add(int64(len(items)))
	s.updateShapeLocked()
	return nil
}

// putBatchLocked appends all items with one vectored write per
// rotation-bounded chunk. Record headers and keys are assembled into a
// reusable arena (sized up front — segments alias into it, so it must
// never reallocate mid-chunk); block payloads are gathered straight from
// the caller's slices. The index is applied per flushed chunk, so a
// failing write aborts the batch with earlier chunks stored and the
// active segment truncated back to the chunk start — the same torn-tail
// discipline as the single-record path. Callers hold s.mu and have
// validated every item.
func (s *Store) putBatchLocked(items []store.KV) error {
	need := 0
	for _, it := range items {
		need += recHeaderLen + 2 + len(it.Key)
	}
	if cap(s.batchArena) < need {
		s.batchArena = make([]byte, 0, need)
	}
	arena := s.batchArena[:0]

	type pendingRec struct {
		key string
		loc recordLoc
	}
	var (
		vecs       [][]byte
		pending    []pendingRec
		payload    int64 // block-payload bytes in the current chunk
		chunkStart = s.woff
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := writevAt(s.w, vecs, chunkStart); err != nil {
			// A partial chunk is a torn tail in the making: cut the file
			// and the in-memory offset back to the chunk start so they
			// agree again. Records of earlier chunks stay applied.
			s.w.Truncate(chunkStart)
			s.woff = chunkStart
			return fmt.Errorf("segstore: appending to segment %d: %w", s.active, err)
		}
		if writevCopies {
			obsCopiedBytes.Add(payload)
		}
		for _, p := range pending {
			s.appliedLocked(p.key, recVersion|p.loc.dataLen, p.loc)
		}
		vecs, pending, payload = vecs[:0], pending[:0], 0
		chunkStart = s.woff
		return nil
	}
	for _, it := range items {
		recLen := int64(recHeaderLen + 2 + len(it.Key) + len(it.Data))
		if s.woff > 0 && s.woff+recLen > s.opts.segmentSize() {
			if err := flush(); err != nil {
				return err
			}
			if err := s.rotateLocked(); err != nil {
				return err
			}
			chunkStart = s.woff
		}
		hdrStart := len(arena)
		word0 := uint32(len(it.Data)) | recVersion
		arena = binary.BigEndian.AppendUint32(arena, word0)
		arena = binary.BigEndian.AppendUint32(arena, 0) // CRC placeholder
		arena = binary.BigEndian.AppendUint16(arena, uint16(len(it.Key)))
		arena = append(arena, it.Key...)
		hdr := arena[hdrStart:]
		crc := xorblock.CRC32C(0, hdr[0:4])
		crc = xorblock.CRC32C(crc, hdr[recHeaderLen:])
		crc = xorblock.CRC32C(crc, it.Data)
		binary.BigEndian.PutUint32(hdr[4:8], crc)
		vecs = append(vecs, hdr)
		if len(it.Data) > 0 {
			vecs = append(vecs, it.Data)
		}
		pending = append(pending, pendingRec{it.Key, recordLoc{
			seg: s.active, off: s.woff,
			keyLen: uint16(len(it.Key)), dataLen: uint32(len(it.Data)),
		}})
		payload += int64(len(it.Data))
		s.woff += recLen
	}
	err := flush()
	s.batchArena = arena[:0]
	return err
}

// maybeCompactLocked runs the auto-compaction trigger after a completed
// write: when Options.CompactRatio is set and dead bytes make up at
// least that share of the log's physical size, compact in place.
// Callers hold s.mu. The write that got us here has already been
// applied and synced, so a compaction failure never fails the write —
// it is recorded (CompactErr) and disables the auto-trigger, so a
// persistently failing store does not re-attempt a full compaction on
// every subsequent write; a successful explicit Compact re-arms it.
func (s *Store) maybeCompactLocked() {
	ratio := s.opts.CompactRatio
	if ratio <= 0 || s.compactErr != nil {
		return
	}
	dead := s.deadBytesLocked()
	if dead <= 0 {
		return
	}
	physical := s.woff
	for _, n := range s.sealedLen {
		physical += n
	}
	if physical <= 0 || float64(dead)/float64(physical) < ratio {
		return
	}
	s.compactErr = s.timedCompactLocked()
}

// CompactErr returns the error that disabled auto-compaction, or nil
// while the trigger is armed. Operators gate health checks on it; a
// successful explicit Compact clears it.
func (s *Store) CompactErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compactErr
}

func checkRecord(key string, data []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("segstore: key of %d bytes outside [1, %d]", len(key), MaxKeyLen)
	}
	if len(data) > MaxBlockLen {
		return fmt.Errorf("segstore: block of %d bytes exceeds limit %d", len(data), MaxBlockLen)
	}
	return nil
}

// appendTombstoneLocked writes the tombstone record of key, rotating the
// active segment first when the append would overflow it, and drops the
// key from the index. Block records take the vectored batch path
// (putBatchLocked); a tombstone is a header and a key. Callers hold s.mu.
func (s *Store) appendTombstoneLocked(key string) error {
	recLen := int64(recHeaderLen + 2 + len(key))
	if s.woff > 0 && s.woff+recLen > s.opts.segmentSize() {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	rec := make([]byte, 0, recLen)
	rec = binary.BigEndian.AppendUint32(rec, recVersion|recTombstone)
	rec = binary.BigEndian.AppendUint32(rec, 0) // CRC placeholder
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(key)))
	rec = append(rec, key...)
	crc := xorblock.CRC32C(0, rec[0:4])
	crc = xorblock.CRC32C(crc, rec[recHeaderLen:])
	binary.BigEndian.PutUint32(rec[4:8], crc)

	if _, err := s.w.WriteAt(rec, s.woff); err != nil {
		// A partial write is a torn tail in the making: cut it off so the
		// in-memory offset and the file agree again.
		s.w.Truncate(s.woff)
		return fmt.Errorf("segstore: appending to segment %d: %w", s.active, err)
	}
	loc := recordLoc{seg: s.active, off: s.woff, keyLen: uint16(len(key))}
	s.woff += recLen
	s.appliedLocked(key, recVersion|recTombstone, loc)
	return nil
}

func (s *Store) maybeSyncLocked() error {
	if !s.opts.Sync {
		return nil
	}
	return s.barrierLocked()
}

// rotateLocked seals the active segment and starts the next one without
// waiting for the disk: it creates the next segment file, moves the
// appends there and hands the sealed file to a seal job that runs beside
// them. The sealed file stays open for ReadAt. Only one job is ever in
// flight — a rotation first waits for the previous one — so what a power
// cut can take from a store without Options.Sync is bounded by two
// segments. Nothing in the new segment is claimed durable before a
// barrier has waited for the job, which fsyncs its directory entry.
func (s *Store) rotateLocked() error {
	if err := s.awaitSealLocked(); err != nil {
		return err
	}
	id := s.active + 1
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("segstore: creating segment %d: %w", id, err)
	}
	sealedID, sealed, ents := s.active, s.w, s.entries
	s.sealedLen[sealedID] = s.woff
	s.files[id] = f
	s.active = id
	s.w = f
	s.woff = 0
	s.entries = make([]logEntry, 0, len(ents))
	s.sealing = true
	s.seal.Add(1)
	go s.sealSegment(sealedID, sealed, s.sealedLen[sealedID], ents, footers)
	return nil
}

// sealSegment is the seal job: it appends the segment's footer (listing
// ents, its records) at end, the offset where its records end, then
// fsyncs the segment and the directory, which pins the entry of the
// segment created after it — without that a power loss could drop the
// file and every record in it although the records themselves were
// fsynced. The footer rides the segment's fsync. A footer that does not
// land is one Open does not find, so it scans the segment: a failed
// footer write does not stop the store (the fsync after it reports a
// disk that loses writes). The directory sync runs here and not in
// rotateLocked because, issued while the file's fsync is in flight, it
// joins the same journal commit and takes as long. The job takes no
// lock: a barrier holds s.mu while it waits for it.
func (s *Store) sealSegment(id uint64, f *os.File, end int64, ents []logEntry, footer bool) {
	defer s.seal.Done()
	if footer {
		f.WriteAt(appendFooter(nil, ents), end)
	}
	if err := timedSync(f); err != nil {
		s.fail(fmt.Errorf("segstore: sealing segment %d: %w", id, err))
		return
	}
	if err := syncDir(s.dir); err != nil {
		s.fail(fmt.Errorf("segstore: syncing %s: %w", s.dir, err))
	}
}

// awaitSealLocked waits for the seal job in flight, if any, and returns
// the store's sticky failure — the job's own, when it just failed.
// Callers hold s.mu, which is what keeps appends out while a barrier
// waits and makes "at most one job" hold.
func (s *Store) awaitSealLocked() error {
	if s.sealing {
		start := time.Now()
		s.seal.Wait()
		obsSealWait.Record(time.Since(start).Nanoseconds())
		s.sealing = false
	}
	return s.failure()
}

// barrierLocked makes everything acknowledged so far durable: it waits
// for the seal job, then fsyncs the active segment. A failure of either
// is sticky. Callers hold s.mu.
func (s *Store) barrierLocked() error {
	if err := s.awaitSealLocked(); err != nil {
		return err
	}
	if err := timedSync(s.w); err != nil {
		return s.fail(fmt.Errorf("segstore: syncing segment %d: %w", s.active, err))
	}
	return nil
}

// Compact reclaims the space of superseded and deleted records: every
// live record still located in a sealed segment is re-appended to the
// log tail, a barrier makes the copies durable (and waits for the seal
// job, which may hold one of the files), and only then are the sealed
// files removed.
// Tombstones vanish with the sealed segments (every record they shadowed
// lives in an older — also sealed, also removed — segment). A crash
// between the copy and the removal leaves duplicates that the
// last-write-wins recovery scan resolves; the next Compact reclaims
// them. A live record whose CRC no longer verifies is dropped from the
// index — the block reads as missing either way, and keeping the index
// honest lets Missing-style enumeration report it for repair.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	err := s.timedCompactLocked()
	if err == nil {
		s.compactErr = nil // a clean explicit run re-arms the auto-trigger
	}
	return err
}

// compactBatchBytes bounds the payload bytes compaction holds in memory
// between reading live records and re-appending them (one record larger
// than this still goes through, alone).
const compactBatchBytes = 4 << 20

// compactLocked is Compact's body, shared with the auto-compaction
// trigger. Callers hold s.mu.
func (s *Store) compactLocked() error {
	sealedActive := s.active
	type liveRec struct {
		key string
		loc recordLoc
	}
	var live []liveRec
	for key, loc := range s.index {
		if loc.seg != sealedActive {
			live = append(live, liveRec{key, loc})
		}
	}
	// Copy in (segment, offset) order: deterministic layout, sequential
	// reads.
	sort.Slice(live, func(a, b int) bool {
		if live[a].loc.seg != live[b].loc.seg {
			return live[a].loc.seg < live[b].loc.seg
		}
		return live[a].loc.off < live[b].loc.off
	})
	// Re-append through the batch path, a bounded number of bytes at a
	// time: the payloads go from the read buffers to the file in the
	// windowed vectored writes of writevAt, with no second copy of the
	// record.
	var (
		batch      []store.KV
		batchBytes int
	)
	for i, r := range live {
		data, ok := readRecord(s.files[r.loc.seg], make([]byte, r.loc.recLen()), r.loc, r.key)
		if !ok {
			s.dropLiveLocked(r.key)
		} else {
			batch = append(batch, store.KV{Key: r.key, Data: data})
			batchBytes += len(data)
		}
		if batchBytes >= compactBatchBytes || i == len(live)-1 {
			if err := s.putBatchLocked(batch); err != nil {
				return err
			}
			batch, batchBytes = batch[:0], 0
		}
	}
	// Nothing is unlinked, and no sealed file closed, before the copies
	// are durable and the seal job — which may hold one of those files —
	// has finished.
	if err := s.barrierLocked(); err != nil {
		return err
	}
	// Remove sealed segments OLDEST FIRST. The order is load-bearing for
	// deleted keys: a tombstone's segment must outlive every older
	// segment holding a record it shadows, or a crash between the two
	// unlinks would leave the shadowed record with no tombstone and the
	// next Open would resurrect the deleted block. Removing in ascending
	// id order means any crash leaves only suffixes of the log, which
	// replay to the same live set.
	var sealed []uint64
	for id := range s.files {
		if id < sealedActive {
			sealed = append(sealed, id)
		}
	}
	sort.Slice(sealed, func(a, b int) bool { return sealed[a] < sealed[b] })
	for _, id := range sealed {
		s.files[id].Close()
		// The segment holds no live records (all were re-appended above),
		// so its handle and tracking can go regardless of what the
		// unlink does; an unremoved file is simply rescanned — and
		// resolved by last-write-wins — on the next Open.
		delete(s.files, id)
		delete(s.sealedLen, id)
		delete(s.liveInSeg, id)
		if err := os.Remove(s.segPath(id)); err != nil {
			// STOP at the first failed unlink: removing any newer segment
			// past a surviving older one would break the suffix shape the
			// ordering argument above depends on (a tombstone segment must
			// never vanish while an older shadowed record survives).
			return fmt.Errorf("segstore: removing sealed segment %d: %w", id, err)
		}
		// Pin each unlink before issuing the next: the ordering argument
		// above only covers power loss if the unlinks reach the disk in
		// order.
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("segstore: syncing %s: %w", s.dir, err)
		}
	}
	return nil
}
